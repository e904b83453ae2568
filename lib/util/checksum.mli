(** The Internet checksum (RFC 1071), used by the IPv4, UDP and TCP codecs.

    The checksum is the one's-complement of the one's-complement sum of the
    data viewed as big-endian 16-bit words, with odd trailing bytes padded
    with a zero byte. *)

val ones_sum : bytes -> pos:int -> len:int -> int
(** [ones_sum b ~pos ~len] is the one's-complement sum of [len] bytes of
    [b] starting at [pos], read eight bytes at a time. The result is an
    unfolded plain-int accumulator: sums of several regions (e.g. a
    pseudo-header sum plus a segment's [ones_sum]) add with [+].

    Only {!finish} of the result is specified. The raw value is a sum of
    32-bit words, not of the 16-bit words RFC 1071 adds, so it differs from
    a byte-by-byte sum; but 2{^16} = 1 modulo 0xffff, so both sums agree
    modulo 0xffff, are zero together, and [finish] maps them to the same
    checksum. Callers pass every sum through [finish].
    @raise Invalid_argument if the region is not inside [b]. *)

val finish : int -> int
(** [finish acc] folds carries and complements, yielding the 16-bit checksum
    value to store in a header. A computed value of 0 is returned as 0
    (callers that need UDP's 0xffff convention handle it themselves). *)

val checksum : bytes -> pos:int -> len:int -> int
(** [checksum b ~pos ~len] is [finish (ones_sum b ~pos ~len)]. *)

val is_valid : bytes -> pos:int -> len:int -> bool
(** [is_valid b ~pos ~len] checks that a region containing its own checksum
    field sums to the all-ones pattern, i.e. verifies without zeroing. *)
