(** Decoded, human-oriented view of a frame.

    Trace dumps (the tcpdump replacement VirtualWire's FAE renders) and
    tests use this to describe what a captured frame contains. The
    view is best-effort: undecodable layers degrade to [Raw]/[Opaque]
    rather than failing, since fault injection intentionally produces
    corrupt packets. *)

type transport =
  | Udp_view of Udp.t
  | Tcp_view of Tcp_segment.t
  | Opaque of int * bytes  (** protocol number, raw IP payload *)

type content =
  | Ip of Ipv4.t * transport
  | Rether of int * bytes  (** 16-bit opcode, rest of payload *)
  | Raw of bytes
  | Bad_ip of string  (** IPv4 parse/checksum failure (e.g. after MODIFY) *)

type t = { eth : Eth.t; content : content }

val of_frame : Eth.t -> t

val describe : t -> string
(** One-line summary, e.g.
    ["eth 02:..:01 > 02:..:02 ipv4 tcp 24576 > 16384 seq=1 ack=0 S len=0"]. *)
