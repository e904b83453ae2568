(** The deliverable of a fault campaign as one self-contained HTML file: the
    FSL coverage table ({!Coverage}), a per-node event timeline, the
    metrics histograms as inline SVG bars, and every [Report_raised] /
    FLAG_ERROR with its causal chain reconstructed by [Vw_core.Explain].

    The output embeds everything — styles and SVG inline, zero external
    resources — so the file can be attached to a bug report or archived
    next to the [--events] log it was built from. *)

val render :
  tables:Vw_fsl.Tables.t ->
  events:Vw_obs.Event.t list ->
  ?metrics:Metrics_view.t ->
  ?result:Vw_core.Scenario.result ->
  ?title:string ->
  unit ->
  string
(** [result] adds the live run's outcome line (offline reports omit it);
    [metrics] adds the histogram section; [title] defaults to the
    scenario name from [tables]. *)

val html_escape : string -> string
(** [html_escape s] is [s] with ampersand, angle brackets and double
    quote replaced by character references: safe as HTML text and inside
    a double-quoted attribute. *)

val page : title:string -> (Buffer.t -> unit) -> string
(** [page ~title body] is one self-contained HTML document: the shared
    head and inline style, an [<h1>] of [title], then whatever [body]
    adds to the buffer. Every page this module renders, the
    [vwctl conform --html] page ([Vw_conform.Report.html]) and the
    campaign index ([Campaign.html_index]) are built on it. *)

val render_fleet :
  ?title:string ->
  ?journal:Journal.record list ->
  ?clusters:Triage.cluster list ->
  ?compare:Compare.t ->
  ?threshold:int ->
  unit ->
  string
(** The campaign-intelligence dashboard, equally self-contained: failure
    signature clusters with per-signature trend sparklines over the
    journal's history, per-scenario health, and — when [compare] is given
    — the campaign-over-campaign table (case changes, coverage deltas,
    new/fixed/persisting signatures, bench verdicts). [clusters] defaults
    to {!Triage.clusters} of [journal]; [threshold] is the recurrence
    flag (default {!Triage.default_threshold}). Written by
    [vwctl triage --html] and [vwctl compare --html]. *)
