(** A process-wide cache of compiled scripts, keyed by content hash.

    Parsing and compiling an FSL script costs on the order of 150 µs —
    noise for one [vwctl run], but a real tax on campaigns that replay the
    same script thousands of times ([run --repeat], a suite re-deploying
    each case's script, a bench driving one synthetic script per trial).
    This cache makes every compile after the first a hash-table lookup.

    Domain-safety invariant (the shared-state audit's third survivor,
    after the seed memo and the ping id): cache entries are shared
    {e read-only} across domains. A {!Tables.t} is immutable after
    {!Compile.compile} returns — the six entry arrays are never written
    again, and they hold no derived index: each engine builds its own in
    {!Tables.compile} at INIT — so handing the same tables to
    concurrently running jobs is safe, and is exactly what
    [run --repeat] already did by capturing one compiled table set in
    every trial's closure. The cache's own map is guarded by a mutex;
    both [Ok] and [Error] results are cached (error strings are
    immutable too).

    Keys are [Digest.string] (MD5) of the full source, so textually
    distinct scripts never share an entry short of an MD5 collision.
    The cache holds at most {!capacity} entries and is cleared wholesale
    when full — a fuzz campaign generating a fresh script per case cycles
    through without unbounded growth, while replay-heavy campaigns stay
    hot. *)

val parse_and_compile : string -> (Tables.t, string) result
(** Like {!Compile.parse_and_compile}, memoized. Concurrent first
    compilations of the same script may race benignly: both compile, one
    wins the table slot, and the loser's result (structurally equal —
    compilation is deterministic) is returned to its caller. *)

type stats = { hits : int; misses : int }

val stats : unit -> stats
(** Cumulative process-wide counters ([Atomic]; campaign workers bump them
    from any domain). A hit rate near 1.0 on a repeated-script campaign is
    the "parse+compile amortized" acceptance signal — see the bench
    campaign section's [compile_cache] record. Never printed into
    byte-deterministic campaign output: under [jobs > 1] two workers can
    miss on the same fresh script at once, so the exact split is
    timing-dependent. *)

val hit_rate : unit -> float
(** [hits / (hits + misses)]; 0.0 before any lookup. *)

val reset : unit -> unit
(** Empty the cache and zero the counters (tests and bench sections that
    need a clean denominator). *)
