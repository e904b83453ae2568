(** A job: one self-contained deterministic unit of campaign work.

    A job owns its whole world — it builds its own testbed (hence its own
    simulation engine, PRNG streams, metrics registry and flight-recorder
    rings) from plain immutable inputs, runs, and returns a {!result}. The
    state-ownership rule that makes plans parallelizable: a job must not
    read or write any mutable state reachable from another job, and must
    not print; anything it wants shown goes in the result's payload and is
    emitted by the reducer in plan order. *)

type 'a result = { verdict : [ `Pass | `Fail ]; payload : 'a }

val result : verdict:[ `Pass | `Fail ] -> 'a -> 'a result

type 'a t

val v : ?label:string -> (unit -> 'a result) -> 'a t
(** [v ~label f] — [f] runs on an arbitrary domain, exactly once. A raised
    exception is caught by the executor and becomes a [Crash] outcome for
    this job alone. *)

val label : _ t -> string

val run : 'a t -> 'a result
(** Execute the job's body (used by the executor; may raise). *)
