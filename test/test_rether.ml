(* Tests for the Rether token-passing protocol — the paper's second case
   study. The behaviours the Figure 6 script relies on are pinned here:
   round-robin circulation, token-ack, exactly [token_transmit_attempts]
   sends before eviction, ring reconstruction, and watchdog regeneration. *)

open Vw_sim
module Host = Vw_stack.Host
module Rether = Vw_rether.Rether

let check = Alcotest.check

let mac i = Vw_net.Mac.of_int i
let ip i = Vw_net.Ip_addr.of_host_index i

type ring_world = {
  engine : Engine.t;
  hosts : Host.t array;
  nodes : Rether.t array;
}

(* N hosts on one switch, Rether on each. *)
let ring_world ?(n = 4) ?(gate_traffic = false) ?config () =
  let engine = Engine.create () in
  let switch = Vw_link.Switch.create engine in
  let hosts =
    Array.init n (fun i ->
        let h =
          Host.create engine
            ~name:(Printf.sprintf "node%d" (i + 1))
            ~mac:(mac (i + 1))
            ~ip:(ip (i + 1))
        in
        let link = Vw_link.Link.create engine Vw_link.Link.default_config in
        Host.attach h
          (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a link));
        ignore (Vw_link.Switch.attach switch (Vw_link.Link.endpoint_b link));
        h)
  in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a != b then Host.add_neighbor a (Host.ip b) (Host.mac b))
        hosts)
    hosts;
  let ring = Array.to_list (Array.map Host.mac hosts) in
  let config =
    match config with
    | Some c -> c
    | None -> { (Rether.default_config ~ring) with gate_traffic }
  in
  let nodes =
    Array.map (fun h -> Rether.install ~config:{ config with ring } h) hosts
  in
  { engine; hosts; nodes }

let total_tokens w =
  Array.fold_left (fun acc n -> acc + (Rether.stats n).Rether.tokens_received) 0 w.nodes

let test_token_circulates () =
  let w = ring_world () in
  Rether.start w.nodes.(0);
  Engine.run w.engine ~until:(Simtime.ms 100);
  (* hold 1ms + pass latency: a 4-node cycle is ~4.2ms; expect >= 20 visits
     per node in 100ms *)
  Array.iter
    (fun node ->
      let received = (Rether.stats node).Rether.tokens_received in
      if received < 15 then
        Alcotest.failf "node saw only %d tokens" received)
    w.nodes;
  check Alcotest.int "no retransmissions on a clean ring" 0
    (Array.fold_left
       (fun acc n -> acc + (Rether.stats n).Rether.token_retransmissions)
       0 w.nodes)

let test_round_robin_order () =
  let w = ring_world () in
  (* watch token arrivals via the receive counters after a fixed horizon:
     all nodes should be visited nearly equally *)
  Rether.start w.nodes.(0);
  Engine.run w.engine ~until:(Simtime.ms 210);
  let counts =
    Array.map (fun n -> (Rether.stats n).Rether.tokens_received) w.nodes
  in
  let min_c = Array.fold_left min max_int counts in
  let max_c = Array.fold_left max 0 counts in
  if max_c - min_c > 1 then
    Alcotest.failf "unbalanced visits: %s"
      (String.concat ","
         (Array.to_list (Array.map string_of_int counts)))

let test_single_token_invariant () =
  let w = ring_world () in
  Rether.start w.nodes.(0);
  (* sample the holder count at many instants *)
  let violations = ref 0 in
  let rec sample k =
    if k > 0 then
      Engine.schedule_after w.engine ~delay:(Simtime.us 500) (fun () ->
          let holders =
            Array.fold_left
              (fun acc n -> if Rether.holds_token n then acc + 1 else acc)
              0 w.nodes
          in
          if holders > 1 then incr violations;
          sample (k - 1))
  in
  sample 100;
  Engine.run w.engine ~until:(Simtime.ms 100);
  check Alcotest.int "never more than one holder" 0 !violations

let test_failure_detection_and_recovery () =
  let w = ring_world () in
  Rether.start w.nodes.(0);
  (* let it circulate, then crash node3 *)
  Engine.schedule_at w.engine ~time:(Simtime.ms 50) (fun () ->
      Host.fail w.hosts.(2));
  Engine.run w.engine ~until:(Simtime.ms 300);
  (* node2 should have evicted node3 after exactly 3 transmissions *)
  let node2 = w.nodes.(1) in
  check Alcotest.int "node2 evicted its successor" 1
    (Rether.stats node2).Rether.evictions;
  check Alcotest.int "exactly 2 retransmissions (3 sends total)" 2
    (Rether.stats node2).Rether.token_retransmissions;
  (* ring views converge to 3 members *)
  Array.iteri
    (fun i node ->
      if i <> 2 then
        check Alcotest.int
          (Printf.sprintf "node%d sees 3 members" (i + 1))
          3
          (List.length (Rether.ring_view node)))
    w.nodes;
  (* and the token still circulates among survivors *)
  let before = total_tokens w in
  Engine.run w.engine ~until:(Simtime.ms 400);
  check Alcotest.bool "token alive after recovery" true (total_tokens w > before)

let test_watchdog_regenerates_after_holder_crash () =
  let w = ring_world () in
  Rether.start w.nodes.(0);
  (* crash the current holder mid-hold: the token dies with it *)
  Engine.schedule_at w.engine ~time:(Simtime.ms 20) (fun () ->
      let holder = ref None in
      Array.iteri
        (fun i n -> if Rether.holds_token n then holder := Some i)
        w.nodes;
      match !holder with
      | Some i -> Host.fail w.hosts.(i)
      | None -> (* token in flight; crash node1 anyway *) Host.fail w.hosts.(0));
  Engine.run w.engine ~until:(Simtime.sec 3.0);
  let regen =
    Array.fold_left
      (fun acc n -> acc + (Rether.stats n).Rether.regenerations)
      0 w.nodes
  in
  check Alcotest.bool "watchdog recreated the token" true (regen >= 1);
  (* circulation resumed *)
  let before = total_tokens w in
  Engine.run w.engine ~until:(Simtime.sec 3.5);
  check Alcotest.bool "circulating again" true (total_tokens w > before)

let test_gating_blocks_without_token () =
  let w = ring_world ~gate_traffic:true () in
  (* do NOT start the token: gated traffic must not flow *)
  let got = ref 0 in
  Host.udp_bind w.hosts.(1) ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.udp_send w.hosts.(0) ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 8);
  Engine.run w.engine ~until:(Simtime.ms 50);
  check Alcotest.int "gated while tokenless" 0 !got;
  (* now start the ring: the queued frame flushes on token arrival *)
  Rether.start w.nodes.(0);
  Engine.run w.engine ~until:(Simtime.ms 100);
  check Alcotest.int "flushed once token arrived" 1 !got

let test_gated_tcp_works () =
  let w = ring_world ~gate_traffic:true () in
  Rether.start w.nodes.(0);
  let stack_a = Vw_tcp.Tcp.attach w.hosts.(0) in
  let stack_d = Vw_tcp.Tcp.attach w.hosts.(3) in
  let data = Buffer.create 256 in
  ignore
    (Vw_tcp.Tcp.listen stack_d ~port:80 ~on_accept:(fun conn ->
         Vw_tcp.Tcp.on_data conn (fun p -> Buffer.add_bytes data p)));
  let conn =
    Vw_tcp.Tcp.connect stack_a ~src_port:5000 ~dst:(ip 4) ~dst_port:80
  in
  Vw_tcp.Tcp.on_established conn (fun () ->
      Vw_tcp.Tcp.send conn (Bytes.create 30_000));
  Engine.run w.engine ~until:(Simtime.sec 10.0);
  check Alcotest.int "TCP completed through the token gate" 30_000
    (Buffer.length data)

let test_rejoin_after_eviction () =
  let w = ring_world () in
  Rether.start w.nodes.(0);
  Engine.schedule_at w.engine ~time:(Simtime.ms 50) (fun () ->
      Host.fail w.hosts.(2));
  Engine.run w.engine ~until:(Simtime.ms 300);
  check Alcotest.int "evicted" 3 (List.length (Rether.ring_view w.nodes.(0)));
  (* revive and rejoin *)
  Host.revive w.hosts.(2);
  Rether.rejoin w.nodes.(2);
  Engine.run w.engine ~until:(Simtime.ms 600);
  Array.iteri
    (fun i node ->
      check Alcotest.int
        (Printf.sprintf "node%d sees 4 members again" (i + 1))
        4
        (List.length (Rether.ring_view node)))
    w.nodes;
  (* the rejoined node receives tokens again *)
  let before = (Rether.stats w.nodes.(2)).Rether.tokens_received in
  Engine.run w.engine ~until:(Simtime.ms 800);
  check Alcotest.bool "rejoined node gets the token" true
    ((Rether.stats w.nodes.(2)).Rether.tokens_received > before)

(* --- real-time bandwidth reservation --- *)

(* RT traffic = UDP destination port 7000 (0x1b58 at frame offset 36). *)
let is_rt_frame (frame : Vw_net.Eth.t) =
  let b = Vw_net.Eth.to_bytes frame in
  Bytes.length b >= 38 && Vw_util.Hexutil.to_int_be b ~pos:36 ~len:2 = 7000

let rt_world ?(reservation = 0) () =
  let engine = Engine.create () in
  let switch = Vw_link.Switch.create engine in
  let hosts =
    Array.init 3 (fun i ->
        let h =
          Host.create engine
            ~name:(Printf.sprintf "node%d" (i + 1))
            ~mac:(mac (i + 1))
            ~ip:(ip (i + 1))
        in
        let link = Vw_link.Link.create engine Vw_link.Link.default_config in
        Host.attach h
          (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a link));
        ignore (Vw_link.Switch.attach switch (Vw_link.Link.endpoint_b link));
        h)
  in
  Array.iter
    (fun a ->
      Array.iter
        (fun b -> if a != b then Host.add_neighbor a (Host.ip b) (Host.mac b))
        hosts)
    hosts;
  let ring = Array.to_list (Array.map Host.mac hosts) in
  let config =
    {
      (Rether.default_config ~ring) with
      gate_traffic = true;
      is_realtime = is_rt_frame;
      cycle_budget = 20_000;
    }
  in
  let nodes = Array.map (fun h -> Rether.install ~config h) hosts in
  if reservation > 0 then
    ignore (Rether.reserve nodes.(0) ~bytes_per_cycle:reservation);
  (engine, hosts, nodes)

let test_admission_control () =
  let _, _, nodes = rt_world () in
  check Alcotest.bool "within budget accepted" true
    (Rether.reserve nodes.(0) ~bytes_per_cycle:15_000);
  check Alcotest.bool "stacking within budget accepted" true
    (Rether.reserve nodes.(0) ~bytes_per_cycle:5_000);
  check Alcotest.bool "over budget rejected" false
    (Rether.reserve nodes.(0) ~bytes_per_cycle:1);
  Rether.release_reservation nodes.(0);
  check Alcotest.int "released" 0 (Rether.reservation nodes.(0));
  check Alcotest.bool "reservable again" true
    (Rether.reserve nodes.(0) ~bytes_per_cycle:20_000)

let test_rt_served_before_best_effort () =
  let engine, hosts, nodes = rt_world ~reservation:5_000 () in
  let rt_got = ref 0 and be_got = ref 0 in
  Host.udp_bind hosts.(1) ~port:7000 (fun ~src:_ ~src_port:_ _ -> incr rt_got);
  Host.udp_bind hosts.(1) ~port:8000 (fun ~src:_ ~src_port:_ _ -> incr be_got);
  (* a best-effort hog plus a small RT flow, queued while tokenless *)
  for _ = 1 to 40 do
    Host.udp_send hosts.(0) ~src_port:1 ~dst:(ip 2) ~dst_port:8000
      (Bytes.create 1000)
  done;
  for _ = 1 to 4 do
    Host.udp_send hosts.(0) ~src_port:1 ~dst:(ip 2) ~dst_port:7000
      (Bytes.create 1000)
  done;
  Rether.start nodes.(0);
  Engine.run engine ~until:(Simtime.ms 50);
  check Alcotest.int "all RT delivered" 4 !rt_got;
  check Alcotest.int "all BE delivered too" 40 !be_got;
  check Alcotest.bool "RT went through the reserved path" true
    ((Rether.stats nodes.(0)).Rether.rt_frames >= 4)

let test_rt_paced_by_reservation () =
  (* reservation of ~2 frames per cycle: 10 RT frames drain over >= 5 token
     visits rather than in one burst *)
  let engine, hosts, nodes = rt_world ~reservation:2_200 () in
  let arrivals = ref [] in
  Host.udp_bind hosts.(1) ~port:7000 (fun ~src:_ ~src_port:_ _ ->
      arrivals := Engine.now engine :: !arrivals);
  for _ = 1 to 10 do
    Host.udp_send hosts.(0) ~src_port:1 ~dst:(ip 2) ~dst_port:7000
      (Bytes.create 1000)
  done;
  Rether.start nodes.(0);
  Engine.run engine ~until:(Simtime.ms 200);
  check Alcotest.int "all delivered eventually" 10 (List.length !arrivals);
  (* spread over several cycles: the time spread must exceed 3 cycles
     (~4 ms each on a 3-node ring with 1 ms holds) *)
  let ts = List.sort compare !arrivals in
  let spread = List.nth ts 9 - List.hd ts in
  check Alcotest.bool "paced across cycles" true (spread > Simtime.ms 10);
  check Alcotest.bool "deferral observed" true
    ((Rether.stats nodes.(0)).Rether.rt_deferred > 0)

let test_rt_without_reservation_waits () =
  let engine, hosts, nodes = rt_world ~reservation:0 () in
  let rt_got = ref 0 in
  Host.udp_bind hosts.(1) ~port:7000 (fun ~src:_ ~src_port:_ _ -> incr rt_got);
  Host.udp_send hosts.(0) ~src_port:1 ~dst:(ip 2) ~dst_port:7000
    (Bytes.create 100);
  Rether.start nodes.(0);
  Engine.run engine ~until:(Simtime.ms 50);
  check Alcotest.int "no reservation, no RT service" 0 !rt_got

let test_install_requires_membership () =
  let engine = Engine.create () in
  let h = Host.create engine ~name:"x" ~mac:(mac 1) ~ip:(ip 1) in
  Alcotest.check_raises "not in ring"
    (Invalid_argument "Rether.install: host not a ring member") (fun () ->
      ignore (Rether.install ~config:(Rether.default_config ~ring:[ mac 2 ]) h))

let suite =
  [
    ( "rether",
      [
        Alcotest.test_case "token circulates" `Quick test_token_circulates;
        Alcotest.test_case "round-robin fairness" `Quick test_round_robin_order;
        Alcotest.test_case "single-token invariant" `Quick test_single_token_invariant;
        Alcotest.test_case "failure detection after 3 sends" `Quick
          test_failure_detection_and_recovery;
        Alcotest.test_case "watchdog regeneration" `Quick
          test_watchdog_regenerates_after_holder_crash;
        Alcotest.test_case "gate blocks without token" `Quick
          test_gating_blocks_without_token;
        Alcotest.test_case "TCP through the gate" `Quick test_gated_tcp_works;
        Alcotest.test_case "rejoin after eviction" `Quick test_rejoin_after_eviction;
        Alcotest.test_case "membership required" `Quick test_install_requires_membership;
      ] );
    ( "rether.realtime",
      [
        Alcotest.test_case "admission control" `Quick test_admission_control;
        Alcotest.test_case "RT served before best effort" `Quick
          test_rt_served_before_best_effort;
        Alcotest.test_case "RT paced by reservation" `Quick
          test_rt_paced_by_reservation;
        Alcotest.test_case "RT without reservation waits" `Quick
          test_rt_without_reservation_waits;
      ] );
  ]
