(** IPv4 addresses. *)

type t
(** Immutable 32-bit address. *)

val of_string : string -> t
(** Parses dotted-quad ["192.168.1.1"].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
val of_bytes : bytes -> pos:int -> t
val write : t -> bytes -> pos:int -> unit

val of_host_index : int -> t
(** [of_host_index n] is [10.0.(n lsr 8).(n land 0xff)], for generating
    testbed addresses. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
