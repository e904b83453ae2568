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

val make :
  ?seq:int -> ?ack_seq:int -> ?flags:flags -> ?window:int ->
  src_port:int -> dst_port:int -> bytes -> t

val to_bytes : src:Ip_addr.t -> dst:Ip_addr.t -> t -> bytes
(** Serializes with the pseudo-header checksum. *)

val of_bytes : src:Ip_addr.t -> dst:Ip_addr.t -> bytes -> (t, string) result
(** Parses and verifies the checksum. *)

val pp : Format.formatter -> t -> unit
