(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic element of the simulation — link loss, corruption,
    collision backoff, MODIFY's random byte perturbation — draws from an
    explicit generator so whole test runs are reproducible from a seed.
    The global [Random] module is never used. *)

type t

val create : seed:int -> t
(** [create ~seed] makes an independent generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Used to give each link / host its own stream so adding a component does
    not perturb the draws of the others. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val byte : t -> int
(** Uniform byte in [\[0, 255\]]. *)

val run_seed : unit -> int
(** The run-level seed shared by every randomized test in a process: the
    value of [VW_SEED] if set to an integer, else 42. Memoized on first
    read so one run cannot mix seeds.

    Domain-ownership invariant: this is the {e only} process-global state
    in the library, and it is read-only after initialization (the memo is
    an [Atomic] whose value is a pure function of the environment, so a
    racing first read is benign). Everything else a simulation touches — a
    [Prng.t], an engine, a testbed — must be created by, and stay owned by,
    the job that uses it; parallel campaign workers ({!Vw_exec}) never
    share generators, and the executor forces this memo before spawning
    domains. *)

val with_seed_on_failure : (unit -> 'a) -> 'a
(** [with_seed_on_failure f] runs [f ()]; if it raises, prints the run seed
    and a [VW_SEED=…] replay hint on stderr before re-raising. Wrap
    randomized test bodies so failures are always reproducible. *)
