(** Hexadecimal and byte-string helpers used throughout VirtualWire.

    Packets in VirtualWire are raw byte strings; the FSL filter tables match
    them by (offset, length, mask, pattern) tuples expressed in hex. These
    helpers convert between the textual hex forms used in scripts and the
    [bytes] values manipulated by the engines. *)

val of_hex : string -> bytes
(** [of_hex s] decodes a hex string such as ["0xdeadbeef"] or ["deadbeef"]
    (case-insensitive, optional [0x] prefix) into bytes. An odd number of
    digits is left-padded with a zero nibble, so ["0x1"] is [\x01].
    @raise Invalid_argument on non-hex characters. *)

val to_hex : bytes -> string
(** [to_hex b] is the lowercase hex rendering of [b], without prefix. *)

val of_hex_value : width:int -> int -> bytes
(** [of_hex_value ~width v] encodes the non-negative integer [v] big-endian
    into exactly [width] bytes.
    @raise Invalid_argument if [v] does not fit or [width <= 0]. *)

val to_int_be : bytes -> pos:int -> len:int -> int
(** [to_int_be b ~pos ~len] reads [len] bytes big-endian as an unsigned
    integer. [len] must be between 1 and 7 so the result fits in an OCaml
    [int]. @raise Invalid_argument on out-of-range access. *)

val set_int_be : bytes -> pos:int -> len:int -> int -> unit
(** [set_int_be b ~pos ~len v] writes [v] big-endian into [len] bytes at
    [pos]. @raise Invalid_argument on out-of-range access. *)

val masked_equal : bytes -> pos:int -> pattern:bytes -> mask:bytes option -> bool
(** [masked_equal b ~pos ~pattern ~mask] checks whether the bytes of [b]
    starting at [pos] equal [pattern] under the optional byte [mask]
    (i.e. [b.(pos+i) land mask.(i) = pattern.(i) land mask.(i)]). Returns
    [false] when the window falls outside [b]. This is the primitive match
    used by the FSL packet classifier. *)
