(** A persistent pool of worker domains, created once and reused across
    campaigns.

    [Domain.spawn]/[Domain.join] are expensive relative to a campaign
    trial: each spawn is a stop-the-world synchronization of every running
    domain, and a campaign that spawns a fresh crew each time pays it over
    and over (BENCH_PR5 measured parallel campaigns {e losing} to
    sequential for exactly this reason). A pool spawns each worker at most
    once per process and parks it on a condition variable between
    campaigns, so {!Executor.map}'s per-campaign cost drops to one
    lock/broadcast.

    Concurrency contract: a pool executes one {!run} at a time per pool —
    [run] is itself serialized with a dedicated mutex, so concurrent
    callers queue rather than interleave. Memory publication is by the pool
    lock: everything the caller wrote before [run] is visible to workers,
    and everything workers wrote is visible to the caller when [run]
    returns (the same guarantee [Domain.join] used to provide). *)

type t

val create : unit -> t
(** An empty pool. Workers are spawned lazily by {!run}, up to the largest
    [workers] ever requested, and stay alive until {!shutdown}. *)

val global : unit -> t
(** The process-wide pool shared by every {!Executor.map} call that is not
    given an explicit pool. Created on first use; its workers are joined by
    an [at_exit] hook so process shutdown stays clean. *)

val run : t -> workers:int -> (unit -> unit) -> unit
(** [run t ~workers f] executes [f ()] concurrently on [workers] pool
    domains {e and} on the calling domain, returning when every invocation
    has finished — the calling domain is always a participant, so total
    parallelism is [workers + 1]. Missing workers are spawned (and kept).
    [workers <= 0] degenerates to [f ()] on the calling domain alone.

    [f] runs more than once and concurrently with itself; it must
    self-schedule its work (the executor claims spans off an atomic
    counter). An exception from any invocation is caught, the remaining
    invocations still finish, and the first exception observed is
    re-raised in the caller. *)

type stats = {
  size : int;  (** live worker domains *)
  spawned : int;  (** domains ever spawned — equals [size] unless shut down *)
  runs : int;  (** [run] calls served *)
}

val stats : t -> stats
(** Spawn accounting, used by tests to prove campaigns reuse workers
    instead of leaking domains. *)

val shutdown : t -> unit
(** Stop and join every worker. Idempotent; the pool can be used again
    afterwards (workers respawn on demand). *)
