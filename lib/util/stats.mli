(** Online sample statistics for the benchmark harness.

    Accumulates observations (latencies, throughputs) with Welford's
    algorithm for numerically stable mean/variance, and keeps the raw
    samples for exact percentiles. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the samples; [nan] when empty. *)

val stddev : t -> float
(** Sample standard deviation; [0.] with fewer than two samples. *)

val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], by nearest-rank on the sorted
    samples; [nan] when empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator over the union of samples. *)
