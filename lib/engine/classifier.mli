(** The packet classifier: match frames against the filter table.

    Filters are tried in declaration order and the first match wins, as in
    the paper ("The priority of the filter rules is in descending order of
    occurrence. If a match is found with one rule then there is no need to
    match the subsequent rules."). A tuple with an unbound variable never
    matches; a bound variable behaves as a literal pattern (see DESIGN.md).

    The engine runs one path: {!classify_fid_c} over the compiled
    {!Vw_fsl.Tables.Compiled} table, once per frame. It dispatches on
    the classification index (one read of the discriminating field
    selects a bucket, merged in fid order with the always-scanned
    fallback filters) and tests short literal tuples as masked int words.
    After warm-up it allocates nothing.

    The paper's implementation "searches linearly through the packet type
    definitions" — the cost Figure 8 measures. {!classify_linear} keeps
    that scan over the record-form tables as the executable reference the
    compiled path is property-tested against (here and by the
    [classifier_diff] fuzz oracle). *)

val classify_linear :
  Vw_fsl.Tables.t -> bindings:bytes option array -> bytes -> int option
(** The naive full scan over the serialized frame — the reference the
    compiled path must agree with, and the baseline the bench compares
    against. *)

type scan_stats = {
  mutable filters_scanned : int;  (** candidate filters actually tested *)
  mutable index_hits : int;  (** packets whose field value had a bucket *)
  mutable index_misses : int;
      (** packets outside every bucket (fallback-only scan) *)
}
(** Cumulative classification counters; pass one record across calls and
    read deltas for per-packet costs. *)

val new_scan_stats : unit -> scan_stats

val classify_fid_c :
  scan_stats ->
  Vw_fsl.Tables.Compiled.t ->
  bindings:bytes option array ->
  Vw_net.Eth.t ->
  int
(** The engine's per-packet entry point: the first matching filter id,
    or −1, read from the [Eth.t] in place (no serialization) through the
    index dispatch and fid-ordered merge scan described above, counted
    into the given stats. A filter is tested by its key tuple (see
    {!Vw_fsl.Tables.Compiled}) first: one window read, [land] its int
    mask, compared with its int key, the window read in place when it
    lies in the payload; the last window value is reused across
    consecutive tests on the same (offset, len). Its remaining keyed
    tuples take the same compare; 8-byte literals and VARs take a byte
    loop over pool slices.

    Zero-allocation contract: after warm-up a call allocates nothing,
    whether it tests 1 filter or 511 — regression-tested through
    {!classify_frame_c} on a table where frames test up to 511 filters.
    Property-tested equal to {!classify_linear}. *)

val classify_frame_c :
  ?stats:scan_stats ->
  Vw_fsl.Tables.Compiled.t ->
  bindings:bytes option array ->
  Vw_net.Eth.t ->
  int option
(** {!classify_fid_c} with the result as an option, for the callers off
    the engine's path (oracles, bench, tests). Without [~stats] it counts
    into a fresh record. Allocates the [Some] of a match, the record or
    the caller's [Some] around [~stats]. *)
