(** Run a campaign, sequentially or across OCaml 5 domains — same output.

    A campaign is [n] independent jobs, job [i] being [f i]. The
    executor's contract is {e byte-determinism}: for deterministic jobs,
    [map ~jobs:1] and [map ~jobs:n] return the same list, because results
    are merged by {!reduce} in index order (never completion order) and
    the early-exit predicate cuts at the {e earliest} index that
    satisfies it, regardless of which worker found it first.

    Preconditions on [f]: each call owns all the mutable state it touches
    (testbed, engine, PRNGs, recorders, metrics) and never prints;
    anything to be shown goes in its result and is emitted by the caller
    in index order. The executor forces the process-wide
    {!Vw_util.Prng.run_seed} memo before it spawns a worker domain so no
    worker races on its initialization. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val effective_jobs : jobs:int -> int
(** [max 1 (min jobs (default_jobs ()))] — a [--jobs] request clamped to
    the machine's cores. Requesting more domains than the machine has
    cores turns parallelism into pure overhead for CPU-bound jobs (every
    minor collection is a stop-the-world barrier across all domains, and
    an unscheduled domain delays everyone's safepoint). {!map} runs the
    [jobs] it is given, so callers clamp where a request enters: the CLI's
    campaign options, and the bench's scaling levels. *)

val auto_chunk : jobs:int -> int -> int
(** [auto_chunk ~jobs n] — the chunk size used when none is given: about
    four spans per worker, clamped to [1 .. 32]. Exposed so benches and
    reports can record the effective chunk. *)

val map :
  ?jobs:int ->
  ?chunk:int ->
  ?stop:(('a, string) result -> bool) ->
  int ->
  (int -> 'a) ->
  ('a, string) result list
(** [map ~jobs n f] runs [f 0 .. f (n-1)] and returns their results in
    index order: element [i] is [Ok (f i)], or [Error msg] when [f i]
    raised ([msg] is [Printexc.to_string] of the exception); the other
    jobs still run.

    [jobs] is capped to [n] and to nothing else (see {!effective_jobs}).
    [jobs <= 1] after capping runs in the calling domain; otherwise [map]
    spawns [jobs - 1] worker domains, and they and the calling domain
    claim spans of [chunk] consecutive indices in ascending order. [map]
    returns, or raises, only after joining every domain it spawned.
    [chunk] defaults to {!auto_chunk} and is a pure scheduling knob: the
    list is byte-identical at every [jobs] and [chunk] combination.

    With [stop], the list ends (inclusively) at the earliest index whose
    result satisfies it. Sequentially, later jobs are never started; in
    parallel, workers stop claiming spans beyond the earliest satisfying
    index (and skip the tail of a claimed span past it) and the results of
    stragglers already running are dropped — either way the returned list
    is identical.

    @raise Invalid_argument when [n < 0]. *)

val reduce :
  ?stop:(('a, string) result -> bool) ->
  int ->
  (int * ('a, string) result) list ->
  ('a, string) result list
(** [reduce n pairs] — the deterministic merge, exposed for testing:
    accepts [(index, result)] pairs in {e any} completion order and
    returns the index-order prefix of [0 .. n-1] up to (and including) the
    first result satisfying [stop] (all [n] when absent or never
    satisfied). @raise Invalid_argument if an index inside the returned
    prefix is missing or duplicated, or an index is outside [0 .. n-1]. *)
