(** Metrics registry: named monotonic counters and fixed-bucket histograms.

    Subsumes the engine's aggregate [Fie.stats] (exported into a registry as
    counters, see [Fie.export_metrics]) and extends it with the
    distributions a single total cannot capture: cascade depth, filter
    candidates scanned per packet, DELAY/REORDER queue occupancy,
    control-frame fan-out per cascade.

    Handles ({!counter}, {!histogram}) are obtained once and updated with
    plain field writes; a handle from the {!null} registry is a no-op, so
    instrumentation sites need no branching of their own. [to_json] renders
    the stable [vw-metrics/1] schema written by [vwctl run --metrics]. *)

type t
type counter
type histogram

val create : unit -> t
val null : t
(** Disabled registry: registration returns inert handles. *)

val enabled : t -> bool

val counter : t -> string -> counter
(** Register (or fetch) the counter [name].
    @raise Invalid_argument if [name] is a histogram. *)

val histogram : t -> ?buckets:int array -> string -> histogram
(** Register (or fetch) the histogram [name]. [buckets] are inclusive upper
    bounds (sorted internally); one overflow bucket is appended.
    @raise Invalid_argument if [name] is a counter. *)

val incr : ?by:int -> counter -> unit
val set : counter -> int -> unit
val value : counter -> int

val observe : histogram -> int -> unit
val total : histogram -> int
val sum : histogram -> int
val max_observed : histogram -> int

val bucket_counts : histogram -> int array * int array
(** [(bounds, counts)]; [counts] has one trailing overflow bucket. *)

val counters : t -> (string * int) list
(** Registration order. *)

val histograms : t -> (string * histogram) list

val to_json : t -> string
(** Schema [vw-metrics/1]; ends with a newline. *)
