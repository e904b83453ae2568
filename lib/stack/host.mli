(** A simulated testbed host: NIC, hook chains, IPv4, UDP, timers.

    This is the substrate the paper assumes (a Linux 2.4 box on the LAN):
    it owns one NIC attached to a {!Vw_link.Link} endpoint, demultiplexes
    incoming frames by ethertype, provides an IPv4 send/receive service with
    a static neighbor (ARP-replacement) table, UDP sockets, and
    jiffy-granular software timers. The VirtualWire FIE/FAE and the RLL
    install themselves as hooks; nothing in the host itself knows about
    them — the "no changes to the host operating system" property of
    Section 3.3. *)

type t

type hook_id
type timer

val create :
  Vw_sim.Engine.t -> name:string -> mac:Vw_net.Mac.t -> ip:Vw_net.Ip_addr.t -> t

val engine : t -> Vw_sim.Engine.t
val name : t -> string
val mac : t -> Vw_net.Mac.t
val ip : t -> Vw_net.Ip_addr.t

val attach : t -> Vw_link.Netif.t -> unit
(** Connect the NIC to a medium (installs the receive callback). *)

(** {1 Hook chains} *)

val add_hook :
  t -> Hook.point -> priority:int -> name:string -> Hook.handler -> hook_id
(** Lower priority = closer to the protocol stack; see {!Hook}. Hooks with
    equal priority run in insertion order on egress and in reverse
    insertion order on ingress. A frame already walking a chain finishes
    with the hooks the chain had when the walk began, whatever is added or
    removed meanwhile. *)

val remove_hook : t -> hook_id -> unit

val reinject : t -> Hook.point -> from_priority:int -> Vw_net.Eth.t -> unit
(** Continue a previously [Stolen] frame through the rest of the chain —
    the hooks strictly beyond [from_priority] in chain order — and on to the
    NIC (egress) or the demultiplexer (ingress). *)

(** {1 Frame level} *)

val send_frame : t -> Vw_net.Eth.t -> unit
(** Push a frame down the full egress chain and out the NIC. *)

val set_ethertype_handler : t -> int -> (Vw_net.Eth.t -> unit) -> unit
(** Register the upper-layer receiver for an ethertype (IPv4 is installed
    automatically; Rether, RLL and the control plane register theirs). *)

val set_tap : t -> (dir:[ `In | `Out ] -> Vw_net.Eth.t -> unit) -> unit
(** Promiscuous observation point at the NIC boundary (after egress hooks /
    before ingress hooks) — the tcpdump equivalent used for trace capture.
    Does not interfere with delivery. *)

(** {1 IPv4} *)

val add_neighbor : t -> Vw_net.Ip_addr.t -> Vw_net.Mac.t -> unit
(** Install a neighbor entry (static, or learned by a resolver). Packets
    parked waiting for this resolution are released immediately. *)

val remove_neighbor : t -> Vw_net.Ip_addr.t -> unit
val neighbor : t -> Vw_net.Ip_addr.t -> Vw_net.Mac.t option

val set_neighbor_miss_handler : t -> (Vw_net.Ip_addr.t -> unit) option -> unit
(** With a handler installed (e.g. {!Arp}), IP packets to unknown neighbors
    are parked (bounded per destination) and the handler is asked to
    resolve; {!add_neighbor} releases them. Without one, unknown neighbors
    are sent to the broadcast MAC — the static-testbed behaviour. *)

val drop_pending : t -> Vw_net.Ip_addr.t -> int
(** Discard packets parked on an unresolvable destination; returns how many
    were dropped. *)

val send_ip : t -> protocol:int -> dst:Vw_net.Ip_addr.t -> bytes -> unit
(** Sends an encoded transport payload (ICMP) in one new datagram. *)

val output_ip : t -> protocol:int -> dst:Vw_net.Ip_addr.t -> bytes -> unit
(** [output_ip t ~protocol ~dst packet] sends a datagram built in place:
    the transport bytes already sit at offset {!Vw_net.Ipv4.header_size}
    of [packet], and the IPv4 header is written into the 20 bytes before
    them. [packet] is handed over: it may wait for neighbor resolution, so
    the caller never touches it again. {!udp_send} and TCP send through
    it, so each copies its payload once. *)

val set_ip_protocol_handler :
  t ->
  int ->
  (src:Vw_net.Ip_addr.t ->
  dst:Vw_net.Ip_addr.t ->
  bytes ->
  pos:int ->
  len:int ->
  unit) ->
  unit
(** Receiver for an IP protocol number. The host checks each IPv4 header in
    place (version/IHL, header checksum, total length, destination) and
    drops a frame that fails, e.g. after a MODIFY fault, as a real stack
    would. The handler gets the sender and destination addresses and the
    transport bytes as a view: the [len] bytes of [b] at [pos], preceded in
    [b] by their IPv4 header. The view is valid only during the call:
    [b] is the payload of a frame in flight, which is shared
    ({!Vw_net.Eth}), so a handler copies what it keeps and never writes
    into [b]. *)

(** {1 ICMP}

    Hosts answer echo requests automatically (like a kernel) and emit
    port-unreachable errors for unbound UDP ports. Other inbound ICMP,
    echo replies included, goes to the observer. *)

val send_icmp : t -> dst:Vw_net.Ip_addr.t -> Vw_net.Icmp.t -> unit
val set_icmp_observer :
  t -> (src:Vw_net.Ip_addr.t -> Vw_net.Icmp.t -> unit) option -> unit

(** {1 UDP} *)

val udp_bind :
  t ->
  port:int ->
  (src:Vw_net.Ip_addr.t -> src_port:int -> bytes -> unit) ->
  unit
(** @raise Invalid_argument if the port is taken. *)

val udp_unbind : t -> port:int -> unit

val udp_send :
  t -> src_port:int -> dst:Vw_net.Ip_addr.t -> dst_port:int -> bytes -> unit
(** Builds the datagram in one buffer: one copy of the payload, both
    headers written in place. *)

(** {1 Timers}

    Timers fire on the host's 10 ms jiffy grid by default, like Linux 2.4
    software timers — so the paper's remark that DELAY "can be no less than
    a jiffy" holds here too. [`Fine] timers fire exactly. *)

val set_timer :
  t -> ?granularity:[ `Jiffy | `Fine ] -> delay:Vw_sim.Simtime.t ->
  (unit -> unit) -> timer

val cancel_timer : t -> timer -> unit

(** {1 Failure injection} *)

val fail : t -> unit
(** Crash the node: the NIC stops sending and receiving and all pending
    timers are inhibited. Implements the FAIL(node) action. *)

val revive : t -> unit
val is_failed : t -> bool

val frames_received : t -> int
