(** Campaign-level aggregation: many runs, one report.

    A parallel campaign ([vwctl suite --jobs], [vwctl fuzz --jobs],
    [vwctl run --repeat]) produces one outcome per job; this module rolls
    them up into a single summary ([vw-campaign/1] JSON), a single
    [vw-cover/1]-compatible coverage document, and a self-contained HTML
    index. Aggregation is a pure fold over outcomes in plan order, so the
    artifacts are byte-identical at every [--jobs] level. *)

type entry

val entry :
  ?cover:Coverage.t ->
  ?href:string ->
  name:string ->
  ok:bool ->
  detail:string ->
  unit ->
  entry
(** One case/run of the campaign. [cover] is its FSL coverage (when the
    case ran with observability on); [href] links the HTML index row to a
    per-case artifact. *)

type t

val v : command:string -> entry list -> t
(** [command] names the producing campaign ("suite", "fuzz", "run"). *)

val total : t -> int
val passed : t -> int
val failed : t -> int
val ok : t -> bool

(** {1 Coverage roll-up} *)

val merge : Coverage.t -> Coverage.t -> (Coverage.t, string) result
(** Sum two coverages of the {e same} script (same scenario name and
    structure): per-rule fire counts, filter/counter/term hits add up, a
    rule's furthest stage is the furthest of the two. [Error] when the
    scenario names or structures differ — use {!concat} for heterogeneous
    campaigns. *)

val concat : ?scenario:string -> (string * Coverage.t) list -> Coverage.t
(** Flatten coverages of {e different} scripts into one document: ids are
    re-indexed into a single flat space and filter/counter names prefixed
    with the case label ("case/name"), so the result renders with the
    stock [vw-cover/1] writer. [scenario] defaults to ["campaign"]. *)

val iter_covers : t -> (name:string -> Coverage.t -> unit) -> unit
(** Visit every entry that carries coverage, in campaign order. *)

val coverage : ?scenario:string -> t -> Coverage.t option
(** {!concat} of every entry that carries coverage, labeled by entry name;
    [None] when no entry does. *)

(** {1 Rendering} *)

val summary_json : ?extra:(string * string) list -> t -> string
(** Schema [vw-campaign/1]: command, totals and one record per entry.
    [extra] adds top-level fields after ["command"]; each value must
    already be rendered JSON (e.g. [("seed", "42")]). Ends with a
    newline. *)

val html_index : ?title:string -> t -> string
(** Self-contained HTML (inline styles, no external resources): the pass/
    fail table with per-entry links. *)
