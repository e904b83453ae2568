(** TCP segment wire format (RFC 793 header, no options).

    Only the codec lives here; protocol behaviour (handshake, congestion
    control) is in [vw_tcp]. With a 14-byte Ethernet header and a 20-byte
    IPv4 header, the serialized frame puts the source port at offset 34, the
    destination port at 36, the sequence number at 38, the acknowledgment at
    42 and the flags byte at 47 — exactly the offsets the paper's FSL filter
    tables use (Figure 2). *)

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

val no_flags : flags

type t = {
  src_port : int;
  dst_port : int;
  seq : int; (* 32-bit, kept in an int *)
  ack_seq : int;
  flags : flags;
  window : int;
  payload : bytes;
}

val header_size : int
(** 20 bytes. *)

val make :
  ?seq:int -> ?ack_seq:int -> ?flags:flags -> ?window:int ->
  src_port:int -> dst_port:int -> bytes -> t

val write_header :
  bytes -> pos:int -> src:Ip_addr.t -> dst:Ip_addr.t -> src_port:int ->
  dst_port:int -> seq:int -> ack_seq:int -> flags:flags -> window:int ->
  len:int -> unit
(** [write_header b ~pos … ~len] writes the 20-byte header of the
    [len]-byte segment at [pos], whose payload already sits behind it,
    with the checksum computed over the RFC 793 pseudo-header. The one
    writer of the layout: {!to_bytes} and TCP's send path both call it. *)

val to_bytes : src:Ip_addr.t -> dst:Ip_addr.t -> t -> bytes
(** Serializes with the pseudo-header checksum: the payload, then
    {!write_header} in front of it. *)

val read :
  src:Ip_addr.t -> dst:Ip_addr.t -> bytes -> pos:int -> len:int ->
  (t, string) result
(** [read ~src ~dst b ~pos ~len] parses the segment held in the [len] bytes
    of [b] at [pos] (an IP payload) in place, verifies the checksum and
    copies only the payload. Bounds-checked: never raises. The one reader
    of the layout. *)

val of_bytes : src:Ip_addr.t -> dst:Ip_addr.t -> bytes -> (t, string) result
(** {!read} over the whole buffer. *)

val pp : Format.formatter -> t -> unit
