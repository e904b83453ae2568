(** UDP datagrams, RFC 768, with pseudo-header checksums.

    The paper's Figure 8 experiment measures VirtualWire's added latency on a
    UDP echo connection; [vw_stack]'s sockets speak this codec. *)

type t = { src_port : int; dst_port : int; payload : bytes }

val header_size : int
(** 8 bytes. *)

val make : src_port:int -> dst_port:int -> bytes -> t

val pseudo_header_sum :
  src:Ip_addr.t -> dst:Ip_addr.t -> protocol:int -> length:int -> int
(** One's-complement sum of the RFC 768/793 pseudo-header, shared with the
    TCP codec. *)

val write_header :
  bytes -> pos:int -> src:Ip_addr.t -> dst:Ip_addr.t -> src_port:int ->
  dst_port:int -> len:int -> unit
(** [write_header b ~pos … ~len] writes the 8-byte header of the
    [len]-byte datagram at [pos], whose payload already sits behind it, with
    the checksum computed over the RFC 768 pseudo-header. A computed
    checksum of 0 is transmitted as 0xffff per the RFC. The one writer of
    the layout: {!to_bytes} and the host's send path both call it. *)

val to_bytes : src:Ip_addr.t -> dst:Ip_addr.t -> t -> bytes
(** The payload, then {!write_header} in front of it. *)

val read :
  src:Ip_addr.t -> dst:Ip_addr.t -> bytes -> pos:int -> len:int ->
  (t, string) result
(** [read ~src ~dst b ~pos ~len] parses the datagram held in the [len]
    bytes of [b] at [pos] (an IP payload) in place: it verifies length and
    checksum (a wire checksum of 0 means "unchecked" and is accepted, per
    the RFC), and copies only the payload. Bounds-checked: never raises.
    The one reader of the layout. *)

val of_bytes : src:Ip_addr.t -> dst:Ip_addr.t -> bytes -> (t, string) result
(** {!read} over the whole buffer. *)

val pp : Format.formatter -> t -> unit
