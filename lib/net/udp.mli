(** UDP datagrams, RFC 768, with pseudo-header checksums.

    The paper's Figure 8 experiment measures VirtualWire's added latency on a
    UDP echo connection; [vw_stack]'s sockets speak this codec. *)

type t = { src_port : int; dst_port : int; payload : bytes }

val make : src_port:int -> dst_port:int -> bytes -> t

val pseudo_header_sum :
  src:Ip_addr.t -> dst:Ip_addr.t -> protocol:int -> length:int -> int
(** One's-complement sum of the RFC 768/793 pseudo-header, shared with the
    TCP codec. *)

val to_bytes : src:Ip_addr.t -> dst:Ip_addr.t -> t -> bytes
(** Serializes with the checksum computed over the RFC 768 pseudo-header.
    A computed checksum of 0 is transmitted as 0xffff per the RFC. *)

val of_bytes : src:Ip_addr.t -> dst:Ip_addr.t -> bytes -> (t, string) result
(** Parses and verifies length and checksum (a wire checksum of 0 means
    "unchecked" and is accepted, per the RFC). *)

val pp : Format.formatter -> t -> unit
