(** A small binary writer/reader used to serialize the six tables and the
    control-plane messages. Big-endian, length-prefixed; no Marshal, so the
    format is stable, inspectable and testable. *)

module W : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int -> unit
  (** full OCaml int (two's complement over 8 bytes) — counters can go
      negative, times are large *)

  val bytes : t -> bytes -> unit
  (** u32 length prefix + contents *)

  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val contents : t -> bytes
end

module R : sig
  type t

  exception Underflow of string

  val of_bytes : bytes -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int
  val bytes : t -> bytes
  val string : t -> string
  val bool : t -> bool
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
end
