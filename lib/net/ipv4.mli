(** IPv4 headers (no options), RFC 791.

    Kept deliberately minimal: the testbed is a single LAN, so there is no
    fragmentation or routing; the header exists so that frame byte layouts —
    and hence FSL filter offsets — match a real wire format, and so that the
    MODIFY fault can corrupt a checksum that receivers genuinely verify. *)

type t = {
  tos : int;
  ttl : int;
  protocol : int;
  ident : int;
  src : Ip_addr.t;
  dst : Ip_addr.t;
  payload : bytes;
}

val header_size : int
(** 20 bytes. *)

val protocol_udp : int (* 17 *)
val protocol_tcp : int (* 6 *)

val make :
  ?tos:int -> ?ttl:int -> ?ident:int ->
  protocol:int -> src:Ip_addr.t -> dst:Ip_addr.t -> bytes -> t

val write_header :
  bytes -> pos:int -> tos:int -> ttl:int -> ident:int -> protocol:int ->
  src:Ip_addr.t -> dst:Ip_addr.t -> len:int -> unit
(** [write_header b ~pos … ~len] writes the 20-byte header of a [len]-byte
    datagram at [pos], header checksum included; the payload may already
    sit behind it. The one writer of the layout: {!to_bytes} and the host's
    send path both call it. *)

val to_bytes : t -> bytes
(** Serializes with a correct header checksum ({!write_header} then the
    payload). *)

val read : bytes -> pos:int -> len:int -> (int, string) result
(** [read b ~pos ~len] checks, in place, the header of the datagram held in
    the [len] bytes of [b] at [pos]: version 4 with IHL 5, the header
    checksum, and a total length between 20 and [len]. [Ok total] is the
    datagram's total length; [Error] describes the failure (truncation, bad
    version, checksum mismatch, bad total length). Bounds-checked: never
    raises. The one reader of the layout: {!of_bytes} and the host's
    receive path both call it. *)

val protocol_at : bytes -> pos:int -> int
val src_at : bytes -> pos:int -> Ip_addr.t

val dst_is : bytes -> pos:int -> Ip_addr.t -> bool
(** Field reads of the header at [pos], for a header {!read} accepted;
    [dst_is] compares the destination without building an address. *)

val of_bytes : bytes -> (t, string) result
(** {!read} at offset 0, then the header fields and a copy of the payload.
    Corrupted packets are dropped by the stack exactly as a real IP layer
    would. *)

val pp : Format.formatter -> t -> unit
