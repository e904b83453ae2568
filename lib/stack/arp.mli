(** Dynamic address resolution (RFC 826) for testbed hosts.

    With [attach], a host resolves IPv4 neighbors on demand instead of
    needing a static table: unknown-destination packets park in the host,
    an ARP request is broadcast (with retries), and the reply installs the
    neighbor and releases the parked packets. Entries age out after
    [cache_ttl] and are re-resolved on next use.

    Being a real protocol on the wire (ethertype 0x0806), resolution itself
    becomes testable with VirtualWire — e.g. a scenario that drops ARP
    replies and asserts the stack's retry/timeout behaviour (see
    [test/test_arp.ml]). *)

type config = {
  request_timeout : Vw_sim.Simtime.t;  (** per-attempt wait; default 100 ms *)
  max_attempts : int;  (** requests before giving up; default 3 *)
  cache_ttl : Vw_sim.Simtime.t;  (** entry lifetime; default 60 s *)
}

val default_config : config

type stats = {
  mutable requests_sent : int;
  mutable replies_sent : int;
  mutable replies_received : int;
  mutable resolutions : int;  (** successful new bindings *)
  mutable failures : int;  (** destinations given up on; parked packets dropped *)
  mutable expirations : int;
}

type t

val attach : ?config:config -> Host.t -> t
(** Installs the ethertype handler and the host's neighbor-miss handler.
    Static entries added before or after attach still work and are aged
    like learned ones only if learned through ARP. *)

val stats : t -> stats
val resolving : t -> int
(** Outstanding resolutions. *)
