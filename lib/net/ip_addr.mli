(** IPv4 addresses. *)

type t = private int
(** The address as an unsigned 32-bit immediate int ([10.0.0.1] is
    [0x0a000001]; every address is [>= 0]), so it is a machine word:
    nothing is boxed, [equal] is an int compare, and an
    {!Vw_util.Int_tbl} keys on [(ip :> int)]. Ordered as unsigned, unlike
    [Int32]'s signed order: [128.0.0.0] sorts above [127.255.255.255]. *)

val of_string : string -> t
(** Parses dotted-quad ["192.168.1.1"].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val of_bytes : bytes -> pos:int -> t
(** The four bytes at [pos], big-endian. @raise Invalid_argument if they
    exceed [b]. *)

val write : t -> bytes -> pos:int -> unit
(** Writes the four bytes at [pos], big-endian. @raise Invalid_argument if
    they exceed [b]. *)

val of_host_index : int -> t
(** [of_host_index n] is [10.0.(n lsr 8).(n land 0xff)], for generating
    testbed addresses. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
