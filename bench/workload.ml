(* Shared benchmark plumbing: synthetic overhead scripts (the "1 to 25
   packet type definitions, 25 actions per match" configurations of
   Section 7), paced TCP sources, and a sequential UDP echo RTT prober. *)

open Vw_sim
module Host = Vw_stack.Host
module Tcp = Vw_tcp.Tcp
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Stats = Vw_util.Stats

let node_specs =
  [
    ("node1", Vw_net.Mac.of_int 1, Vw_net.Ip_addr.of_host_index 1);
    ("node2", Vw_net.Mac.of_int 2, Vw_net.Ip_addr.of_host_index 2);
  ]

let node_table =
  "NODE_TABLE\nnode1 02:00:00:00:00:01 10.0.0.1\nnode2 02:00:00:00:00:02 10.0.0.2\nEND\n"

(* [n_filters] packet definitions: the first n-1 can never match (source
   port 0xeee0+k does not occur); the last one matches the measured flow.
   This is the paper's worst case for the linear classifier scan. *)
let padding_filters n =
  String.concat ""
    (List.init (max 0 n) (fun k ->
         Printf.sprintf "pad%d: (34 2 0x%x)\n" k (0xe000 + k)))

(* The 25-action rule: each matched packet re-arms the rule (RESET) and
   fires 24 more counter updates, i.e. 25 actions per match. *)
let actions_rule ~counter ~locals =
  let incrs =
    String.concat "" (List.init locals (fun k -> Printf.sprintf "INCR_CNTR( x%d, 1 );\n" k))
  in
  Printf.sprintf "((%s = 1)) >> RESET_CNTR( %s );\n%s" counter counter incrs

let local_decls locals =
  String.concat ""
    (List.init locals (fun k -> Printf.sprintf "x%d: (node2)\n" k))

(* Overhead script for the TCP throughput experiment (Figure 7). *)
let tcp_overhead_script ~n_filters ~actions =
  let locals = if actions then 24 else 0 in
  "FILTER_TABLE\n"
  ^ padding_filters (n_filters - 1)
  ^ "TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)\n"
  ^ "END\n" ^ node_table ^ "SCENARIO fig7_overhead\n"
  ^ "DATA: (TCP_data, node1, node2, RECV)\n"
  ^ local_decls locals
  ^ "(TRUE) >> ENABLE_CNTR( DATA );\n"
  ^ (if actions then actions_rule ~counter:"DATA" ~locals else "")
  ^ "END\n"

(* Overhead script for the UDP echo experiment (Figure 8). With
   [match_first], the measured filters precede the padding — the classifier
   ablation's best case (the default worst case scans all pads first). *)
let udp_overhead_script_at ~match_first ~n_filters ~actions =
  let locals = if actions then 24 else 0 in
  let measured =
    if n_filters >= 2 then
      "udp_ping: (34 2 0x1388), (36 2 0x1389)\n\
       udp_pong: (34 2 0x1389), (36 2 0x1388)\n"
    else "udp_ping: (34 2 0x1388), (36 2 0x1389)\n"
  in
  let pads = max 0 (n_filters - if n_filters >= 2 then 2 else 1) in
  let table =
    if match_first then measured ^ padding_filters pads
    else padding_filters pads ^ measured
  in
  "FILTER_TABLE\n" ^ table ^ "END\n" ^ node_table
  ^ "SCENARIO fig8_overhead\n"
  ^ "PING: (udp_ping, node1, node2, RECV)\n"
  ^ local_decls locals
  ^ "(TRUE) >> ENABLE_CNTR( PING );\n"
  ^ (if actions then actions_rule ~counter:"PING" ~locals else "")
  ^ "END\n"

let udp_overhead_script ~n_filters ~actions =
  udp_overhead_script_at ~match_first:false ~n_filters ~actions

(* --- adversarial filter tables for the classification index --- *)

let adversarial_scenario =
  "END\n" ^ node_table ^ "SCENARIO adv_index\n"
  ^ "PING: (udp_ping, node1, node2, RECV)\n"
  ^ "(TRUE) >> ENABLE_CNTR( PING );\n" ^ "END\n"

(* Every filter pins the discriminating (34, 2) window to the measured
   flow's source port, so the whole table lands in ONE bucket and the
   indexed scan degenerates to the linear one. The pads are told apart
   only by a second tuple at a private payload offset whose value (0xaa)
   never occurs in the probe frame; the real filter comes last. *)
let shared_bucket_script ~n_filters =
  let pads =
    String.concat ""
      (List.init (max 0 (n_filters - 1)) (fun k ->
           Printf.sprintf "pad%d: (34 2 0x1388), (%d 1 0xaa)\n" k (42 + k)))
  in
  "FILTER_TABLE\n" ^ pads
  ^ "udp_ping: (34 2 0x1388), (36 2 0x1389)\n"
  ^ adversarial_scenario

(* Every pad constrains the same (34, 2) window but only under a mask, so
   none of them is indexable: they all fall into the always-scanned
   fallback array and the index's single useful bucket (the real filter)
   buys nothing. Masked values 0xe000+16k never match the probe's
   0x1388 under 0xfff0. *)
let masked_fallback_script ~n_filters =
  let pads =
    String.concat ""
      (List.init (max 0 (n_filters - 1)) (fun k ->
           Printf.sprintf "pad%d: (34 2 0xfff0 0x%04x)\n" k
             (0xe000 + (k lsl 4))))
  in
  "FILTER_TABLE\n" ^ pads
  ^ "udp_ping: (34 2 0x1388), (36 2 0x1389)\n"
  ^ adversarial_scenario

(* [n_filters] singleton buckets whose 16-bit discriminating values all
   stay in range (0x2000 + k), so the shape scales to 10k filters where
   [padding_filters]'s 0xe000 base would overflow the 2-byte field. The
   probe's 0x1388 selects only the real filter's bucket: this is index
   dispatch at scale, not scan length. *)
let big_singleton_script ~n_filters =
  let pads =
    String.concat ""
      (List.init (max 0 (n_filters - 1)) (fun k ->
           Printf.sprintf "pad%d: (34 2 0x%04x)\n" k (0x2000 + k)))
  in
  "FILTER_TABLE\n" ^ pads
  ^ "udp_ping: (34 2 0x1388), (36 2 0x1389)\n"
  ^ adversarial_scenario

(* --- direct-engine deployment for the engine-entry bench ---

   The engine section measures [Fie.process_one] itself, so the testbed
   is deployed locally: node2's engine gets the tables via [init_local]
   (no control-plane traffic, no cost model, no simulation running) and
   the measurement drives its ingress handler directly. *)
let direct_engine ~script =
  let tables =
    match Vw_fsl.Compile.parse_and_compile script with
    | Ok t -> t
    | Error e -> failwith ("bench engine compile: " ^ e)
  in
  let testbed =
    Testbed.of_node_table
      ~config:{ Testbed.default_config with trace_capacity = 16 }
      tables
  in
  let fie = Testbed.fie (Testbed.node testbed "node2") in
  (testbed, fie, tables)

let direct_engine_start fie tables =
  (match Vw_engine.Fie.init_local fie ~controller_nid:0 tables with
  | Ok () -> ()
  | Error e -> failwith ("bench engine init: " ^ e));
  Vw_engine.Fie.start_local fie

(* The CPU-cost model used for the intrusiveness experiments: calibrated so
   that the 25-filter + 25-action + RLL configuration lands in the paper's
   "below 10% of the normal" band on this testbed's RTT. *)
let cost_model =
  {
    Vw_engine.Fie.cost_base = Simtime.ns 1_000;
    cost_per_filter = Simtime.ns 150;
    cost_per_action = Simtime.ns 150;
  }

type vw_config =
  | Bare  (** engines installed but no scenario: the paper's baseline *)
  | Vw of { n_filters : int; actions : bool }
  | Vw_rll of { n_filters : int; actions : bool }

let make_testbed ?(shared_bus = false) config =
  let rll =
    match config with
    | Vw_rll _ ->
        (* a window deep enough not to throttle a loaded 100 Mbps path *)
        Some { Vw_rll.Rll.default_config with window = 64 }
    | Bare | Vw _ -> None
  in
  let testbed_config =
    {
      Testbed.default_config with
      rll;
      (* [shared_bus] selects the contended topology of the Figure 7
         experiment: one shared 100 Mbps collision domain (100 m of cable,
         0.5 µs propagation), which is where RLL's extra acks hurt. *)
      topology = (if shared_bus then Testbed.Shared_bus else Testbed.Star);
      link =
        {
          Vw_link.Link.default_config with
          propagation =
            (if shared_bus then Simtime.ns 500
             else Vw_link.Link.default_config.propagation);
          max_queue = 512;
        };
      trace_capacity = 16 (* benches do not need traces *);
    }
  in
  Testbed.create ~config:testbed_config node_specs

let deploy_overhead ~script testbed =
  (match Scenario.deploy_only testbed ~script with
  | Ok _ -> ()
  | Error e -> failwith ("bench deploy: " ^ e));
  List.iter
    (fun n -> Vw_engine.Fie.set_cost_model (Testbed.fie n) (Some cost_model))
    (Testbed.nodes testbed);
  (* let INIT/START propagate before measurement traffic begins *)
  Vw_core.Testbed.run testbed ~until:(Simtime.ms 8) ()

let prepare ?shared_bus ~script_of config =
  let testbed = make_testbed ?shared_bus config in
  (match config with
  | Bare -> ()
  | Vw { n_filters; actions } | Vw_rll { n_filters; actions } ->
      deploy_overhead ~script:(script_of ~n_filters ~actions) testbed);
  testbed

(* --- paced TCP source (Figure 7) --- *)

(* Pump application data into a TCP connection at [offered_mbps] for
   [duration]; return goodput in Mbps measured at the receiver. *)
let tcp_offered_load_run testbed ~offered_mbps ~duration =
  let engine = Testbed.engine testbed in
  let node1 = Testbed.node testbed "node1" in
  let node2 = Testbed.node testbed "node2" in
  let stack1 = Testbed.tcp node1 in
  let stack2 = Testbed.tcp node2 in
  let server_conn = ref None in
  ignore
    (Tcp.listen stack2 ~port:0x4000 ~on_accept:(fun conn ->
         server_conn := Some conn;
         Tcp.on_data conn (fun _ -> ())));
  let config = { Tcp.default_config with mss = 1448 } in
  let conn =
    Tcp.connect ~config stack1 ~src_port:0x6000
      ~dst:(Host.ip (Testbed.host node2))
      ~dst_port:0x4000
  in
  let t0 = Engine.now engine in
  let stop_at = Simtime.(t0 + duration) in
  (* write 1 ms worth of data every 1 ms — a smooth constant-rate source *)
  let chunk = int_of_float (offered_mbps *. 1e6 /. 8.0 *. 0.001) in
  let rec pump () =
    if Engine.now engine < stop_at then begin
      Tcp.send conn (Bytes.create chunk);
      Engine.schedule_after engine ~delay:(Simtime.ms 1) pump
    end
  in
  Tcp.on_established conn (fun () -> pump ());
  Engine.run engine ~until:stop_at;
  let delivered =
    match !server_conn with Some c -> Tcp.bytes_delivered c | None -> 0
  in
  float_of_int (delivered * 8) /. Simtime.to_sec duration /. 1e6

(* --- sequential UDP echo prober (Figure 8) --- *)

let udp_rtt_run testbed ~samples ~payload_size =
  let engine = Testbed.engine testbed in
  let alice = Testbed.host (Testbed.node testbed "node1") in
  let bob = Testbed.host (Testbed.node testbed "node2") in
  let rtts = Stats.create () in
  Host.udp_bind bob ~port:0x1389 (fun ~src ~src_port payload ->
      Host.udp_send bob ~src_port:0x1389 ~dst:src ~dst_port:src_port payload);
  let sent_at = ref Simtime.zero in
  let remaining = ref samples in
  let send_ping () =
    sent_at := Engine.now engine;
    Host.udp_send alice ~src_port:0x1388 ~dst:(Host.ip bob) ~dst_port:0x1389
      (Bytes.create payload_size)
  in
  Host.udp_bind alice ~port:0x1388 (fun ~src:_ ~src_port:_ _ ->
      Stats.add rtts (Simtime.to_sec Simtime.(Engine.now engine - !sent_at));
      decr remaining;
      if !remaining > 0 then
        Engine.schedule_after engine ~delay:(Simtime.us 50) send_ping);
  send_ping ();
  Engine.run engine ~until:Simtime.(Engine.now engine + Simtime.sec 30.0);
  rtts
