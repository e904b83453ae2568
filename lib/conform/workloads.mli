(** Built-in traffic generators and the [# vwctl:] per-script directives.

    Every conformance script needs traffic to conform *to*; these are the
    canonical workloads the CLI offers (tcp-stream, udp-ping, rether,
    http-failover, idle), factored out of vwctl so the committed
    conformance corpus under [test/conformance/] replays under
    [dune runtest] with exactly the traffic the CLI would drive. *)

type kind = Udp_ping | Udp_blast | Tcp_stream | Rether_ring | Http_failover | Idle

val kind_to_string : kind -> string

val kind_of_string : string -> (kind, string) result
(** Accepts the CLI spellings: udp-ping, udp-blast, tcp-stream, rether,
    http-failover, idle. *)

val make : kind -> bytes:int -> Vw_core.Testbed.t -> unit
(** [make kind ~bytes testbed] starts the workload on [testbed]. TCP flows
    run from the first node of the node table to the last on ports
    0x6000 -> 0x4000 (the paper's convention); udp-ping uses
    0x1388 -> 0x1389; http-failover serves port 80 on every node but the
    first and fetches [max 1 (bytes/64)] pages from the first.

    udp-blast drives [max 1 (bytes/64)] one-way 64-byte UDP frames
    (0x1388 -> 0x1389), injected at the sender's egress engine in
    32-frame bursts, one per simulated millisecond
    ({!Vw_core.Testbed.process_batch}). *)

(** Per-script run directives, embedded as comments:
      [# vwctl: workload=udp-ping bytes=640 expect=fail duration=10 arp=on]
    Unknown keys are rejected so typos do not silently change a test. *)
type directives = {
  d_workload : kind;
  d_bytes : int;
  d_expect : [ `Pass | `Fail ];
  d_duration : float;  (** scenario wall-clock limit, simulated seconds *)
  d_arp : bool;  (** resolve neighbors with ARP instead of static tables *)
}

val parse_directives : string -> (directives, string) result
(** Scan [src] for [# vwctl:] lines; later lines override earlier ones.
    Defaults: tcp-stream, 1 MB, expect=pass, 60 s, arp off. *)

val directives_config : directives -> Vw_core.Testbed.config option
(** [Some config] enabling ARP when [d_arp] is set, else [None] (use the
    caller's default). *)
