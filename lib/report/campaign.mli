(** Campaign-level aggregation: many runs, one report.

    A parallel campaign ([vwctl suite --jobs], [vwctl fuzz --jobs],
    [vwctl run --repeat]) produces one outcome per job; this module rolls
    them up into a single summary ([vw-campaign/1] JSON), a single
    [vw-cover/1]-compatible coverage document, and a self-contained HTML
    index. Aggregation is a pure fold over outcomes in index order, so the
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

val passed : t -> int
val ok : t -> bool

(** {1 Coverage roll-up} *)

val iter_covers : t -> (name:string -> Coverage.t -> unit) -> unit
(** Visit every entry that carries coverage, in campaign order. *)

val coverage : ?scenario:string -> t -> Coverage.t option
(** Every entry that carries coverage, flattened into one document: ids
    are re-indexed into a single flat space and filter/counter names
    prefixed with the entry name ("case/name"), so the result renders
    with the stock [vw-cover/1] writer. [scenario] defaults to
    ["campaign"]; [None] when no entry carries coverage. *)

(** {1 Rendering} *)

val summary_json : ?extra:(string * string) list -> t -> string
(** Schema [vw-campaign/1]: command, totals and one record per entry.
    [extra] adds top-level fields after ["command"]; each value must
    already be rendered JSON (e.g. [("seed", "42")]). Ends with a
    newline. *)

val html_index : ?title:string -> t -> string
(** The pass/fail table with per-entry links, as one self-contained page
    on {!Html_report.page}, the scaffold of the run, fleet and conform
    pages. *)
