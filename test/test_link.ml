(* Tests for the physical layer: links, buses (collisions), switch. *)

open Vw_sim
open Vw_link

let check = Alcotest.check

let full_duplex ?(bandwidth = 100e6) ?(loss = 0.0) ?(prop = Simtime.us 5) () =
  {
    Link.default_config with
    bandwidth_bps = bandwidth;
    loss_rate = loss;
    propagation = prop;
  }

let mac i = Vw_net.Mac.of_int i

(* A frame of [n] bytes on the wire, header included. *)
let frame_of_size n =
  Vw_net.Eth.make ~dst:(mac 2) ~src:(mac 1) ~ethertype:0x0800
    (Bytes.make (n - Vw_net.Eth.header_size) 'x')

let test_delivery_latency () =
  let engine = Engine.create () in
  (* 1000 bytes at 100 Mbps = 80 us serialization + 5 us propagation *)
  let link = Link.create engine (full_duplex ()) in
  let received_at = ref (-1) in
  Link.set_receive (Link.endpoint_b link) (fun _ -> received_at := Engine.now engine);
  Link.send (Link.endpoint_a link) (frame_of_size 1000);
  Engine.run engine;
  check Alcotest.int "serialization + propagation" (Simtime.us 85) !received_at

let test_fifo_and_serialization () =
  let engine = Engine.create () in
  let link = Link.create engine (full_duplex ()) in
  let arrivals = ref [] in
  Link.set_receive (Link.endpoint_b link) (fun frame ->
      arrivals := (Vw_net.Eth.size frame, Engine.now engine) :: !arrivals);
  Link.send (Link.endpoint_a link) (frame_of_size 1000);
  Link.send (Link.endpoint_a link) (frame_of_size 500);
  Engine.run engine;
  match List.rev !arrivals with
  | [ (1000, t1); (500, t2) ] ->
      check Alcotest.int "first frame" (Simtime.us 85) t1;
      (* second serializes after the first: 80 + 40 + 5 prop *)
      check Alcotest.int "second frame" (Simtime.us 125) t2
  | _ -> Alcotest.fail "unexpected arrivals"

let test_duplex_directions_independent () =
  let engine = Engine.create () in
  let link = Link.create engine (full_duplex ()) in
  let got_a = ref false and got_b = ref false in
  Link.set_receive (Link.endpoint_a link) (fun _ -> got_a := true);
  Link.set_receive (Link.endpoint_b link) (fun _ -> got_b := true);
  Link.send (Link.endpoint_a link) (frame_of_size 100);
  Link.send (Link.endpoint_b link) (frame_of_size 100);
  Engine.run engine;
  check Alcotest.bool "a received" true !got_a;
  check Alcotest.bool "b received" true !got_b;
  check Alcotest.int "no collisions on full duplex" 0
    (Link.stats link).Media_stats.dropped_collision

let test_loss_rate () =
  let engine = Engine.create ~seed:7 () in
  let link = Link.create engine (full_duplex ~loss:0.3 ()) in
  let received = ref 0 in
  Link.set_receive (Link.endpoint_b link) (fun _ -> incr received);
  let n = 2000 in
  for i = 0 to n - 1 do
    Engine.schedule_at engine ~time:(Simtime.us (100 * i)) (fun () ->
        Link.send (Link.endpoint_a link) (frame_of_size 100))
  done;
  Engine.run engine;
  let ratio = float_of_int !received /. float_of_int n in
  if ratio < 0.64 || ratio > 0.76 then
    Alcotest.failf "survival ratio %f, expected ~0.7" ratio;
  check Alcotest.int "stats add up" n
    ((Link.stats link).Media_stats.delivered
    + (Link.stats link).Media_stats.dropped_loss)

let test_queue_overflow () =
  let engine = Engine.create () in
  let link = Link.create engine { (full_duplex ()) with max_queue = 4 } in
  for _ = 1 to 10 do
    Link.send (Link.endpoint_a link) (frame_of_size 1000)
  done;
  Engine.run engine;
  let stats = Link.stats link in
  (* 1 transmitting is also queued in this model: 4 fit, 6 dropped *)
  check Alcotest.int "tail drops" 6 stats.Media_stats.dropped_queue;
  check Alcotest.int "delivered rest" 4 stats.Media_stats.delivered

(* --- half-duplex bus: contention --- *)

let test_bus_broadcast_semantics () =
  let engine = Engine.create () in
  let bus = Bus.create engine Link.default_config ~n:3 in
  let got = Array.make 3 0 in
  for i = 0 to 2 do
    Bus.set_receive (Bus.endpoint bus i) (fun _ -> got.(i) <- got.(i) + 1)
  done;
  Bus.send (Bus.endpoint bus 0) (frame_of_size 100);
  Engine.run engine;
  check Alcotest.int "sender does not hear itself" 0 got.(0);
  check Alcotest.int "peer 1 hears" 1 got.(1);
  check Alcotest.int "peer 2 hears" 1 got.(2)

let test_bus_defers_when_carrier_sensed () =
  let engine = Engine.create () in
  let bus = Bus.create engine Link.default_config ~n:2 in
  let arrivals = ref [] in
  Bus.set_receive (Bus.endpoint bus 1) (fun frame ->
      arrivals := (Vw_net.Eth.size frame, Engine.now engine) :: !arrivals);
  Bus.set_receive (Bus.endpoint bus 0) (fun frame ->
      arrivals := (Vw_net.Eth.size frame, Engine.now engine) :: !arrivals);
  (* 0 starts at t=0; 1 wants to start at t=40us: carrier already sensed
     (propagation 5us < 40us), so 1 defers — no collision. *)
  Bus.send (Bus.endpoint bus 0) (frame_of_size 1000);
  Engine.schedule_at engine ~time:(Simtime.us 40) (fun () ->
      Bus.send (Bus.endpoint bus 1) (frame_of_size 500));
  Engine.run engine;
  check Alcotest.int "no collision" 0 (Bus.stats bus).Media_stats.dropped_collision;
  check Alcotest.int "both delivered" 2 (List.length !arrivals)

let test_bus_collision_in_vulnerable_window () =
  let engine = Engine.create ~seed:3 () in
  let bus = Bus.create engine Link.default_config ~n:2 in
  let arrivals = Array.make 2 (-1) in
  for i = 0 to 1 do
    Bus.set_receive (Bus.endpoint bus i) (fun _ ->
        arrivals.(i) <- Engine.now engine)
  done;
  (* Endpoint 1 starts at 2 us, inside the 5 us vulnerable window of
     endpoint 0's frame: both frames die and back off. Without the
     collision, endpoint 1 would receive endpoint 0's frame at 85 us (80 us
     serialization + 5 us propagation). The collided completion still pops
     at 80 us and must do nothing. *)
  Bus.send (Bus.endpoint bus 0) (frame_of_size 1000);
  Engine.schedule_at engine ~time:(Simtime.us 2) (fun () ->
      Bus.send (Bus.endpoint bus 1) (frame_of_size 1000));
  Engine.run engine;
  check Alcotest.int "endpoint 0 receives after backoff" 87_001 arrivals.(0);
  check Alcotest.int "endpoint 1 receives after backoff" 170_931 arrivals.(1);
  check Alcotest.int "clock ends at the last delivery" 170_931
    (Engine.now engine);
  check Alcotest.int "no event left" 0 (Engine.pending engine);
  let stats = Bus.stats bus in
  check Alcotest.int "no give-up" 0 stats.Media_stats.dropped_collision;
  check Alcotest.int "both delivered once" 2 stats.Media_stats.delivered

(* Testbed's [Shared_bus] topology: three hosts on one bus, each sending
   400-byte UDP datagrams to the next host every 100 us (host i offset by
   i us). The offered load exceeds the channel, so queues overflow and
   frames collide; the pinned counts are the model's behaviour at seed 7. *)
let test_testbed_shared_bus () =
  let specs =
    List.init 3 (fun i ->
        ( Printf.sprintf "h%d" i,
          Vw_net.Mac.of_int (i + 1),
          Vw_net.Ip_addr.of_string (Printf.sprintf "10.0.0.%d" (i + 1)) ))
  in
  let config =
    {
      Vw_core.Testbed.default_config with
      seed = 7;
      topology = Vw_core.Testbed.Shared_bus;
    }
  in
  let tb = Vw_core.Testbed.create ~config specs in
  let engine = Vw_core.Testbed.engine tb in
  let hosts =
    Array.of_list (List.map Vw_core.Testbed.host (Vw_core.Testbed.nodes tb))
  in
  let received = ref 0 in
  Array.iter
    (fun h ->
      Vw_stack.Host.udp_bind h ~port:9 (fun ~src:_ ~src_port:_ _ ->
          incr received))
    hosts;
  Array.iteri
    (fun i h ->
      let dst = Vw_stack.Host.ip hosts.((i + 1) mod 3) in
      for k = 0 to 199 do
        Engine.schedule_at engine ~time:(Simtime.us ((100 * k) + i)) (fun () ->
            Vw_stack.Host.udp_send h ~src_port:9 ~dst ~dst_port:9
              (Bytes.create 400))
      done)
    hosts;
  Vw_core.Testbed.run tb ~until:(Simtime.ms 50) ();
  let stats = Bus.stats (Option.get (Vw_core.Testbed.bus tb)) in
  check Alcotest.int "datagrams received" 515 !received;
  check Alcotest.int "sent" 600 stats.Media_stats.sent;
  check Alcotest.int "delivered" 1030 stats.Media_stats.delivered;
  check Alcotest.int "queue drops" 85 stats.Media_stats.dropped_queue;
  check Alcotest.int "collision give-ups" 0 stats.Media_stats.dropped_collision

(* --- switch --- *)

let eth_frame ~src ~dst =
  Vw_net.Eth.make ~dst ~src ~ethertype:0x0800 (Bytes.create 10)

let star engine n =
  let sw = Switch.create engine in
  let eps =
    Array.init n (fun _ ->
        let l = Link.create engine (full_duplex ()) in
        ignore (Switch.attach sw (Link.endpoint_b l));
        Link.endpoint_a l)
  in
  (sw, eps)

let test_switch_floods_unknown () =
  let engine = Engine.create () in
  let sw, eps = star engine 3 in
  let got = Array.make 3 0 in
  Array.iteri (fun i ep -> Link.set_receive ep (fun _ -> got.(i) <- got.(i) + 1)) eps;
  Link.send eps.(0) (eth_frame ~src:(mac 0) ~dst:(mac 2));
  Engine.run engine;
  check Alcotest.int "flooded to 1" 1 got.(1);
  check Alcotest.int "flooded to 2" 1 got.(2);
  check Alcotest.int "not back to sender" 0 got.(0);
  check Alcotest.int "one flood" 1 (Switch.stats sw).Switch.flooded

let test_switch_learns () =
  let engine = Engine.create () in
  let sw, eps = star engine 3 in
  let got = Array.make 3 0 in
  Array.iteri (fun i ep -> Link.set_receive ep (fun _ -> got.(i) <- got.(i) + 1)) eps;
  (* teach the switch where mac 2 lives *)
  Link.send eps.(2) (eth_frame ~src:(mac 2) ~dst:(mac 0));
  Engine.run engine;
  Array.fill got 0 3 0;
  Link.send eps.(0) (eth_frame ~src:(mac 0) ~dst:(mac 2));
  Engine.run engine;
  check Alcotest.int "unicast to 2 only" 1 got.(2);
  check Alcotest.int "no leak to 1" 0 got.(1);
  check Alcotest.bool "forwarded count" true ((Switch.stats sw).Switch.forwarded >= 1)

let test_switch_broadcast () =
  let engine = Engine.create () in
  let _, eps = star engine 4 in
  let got = Array.make 4 0 in
  Array.iteri (fun i ep -> Link.set_receive ep (fun _ -> got.(i) <- got.(i) + 1)) eps;
  Link.send eps.(1) (eth_frame ~src:(mac 1) ~dst:Vw_net.Mac.broadcast);
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "everyone but sender" [ 1; 0; 1; 1 ]
    (Array.to_list got)

let test_switch_filters_same_port () =
  let engine = Engine.create () in
  let sw, eps = star engine 2 in
  (* src and dst behind the same port: learn both on port 0 *)
  Link.send eps.(0) (eth_frame ~src:(mac 0) ~dst:(mac 9));
  Engine.run engine;
  Link.send eps.(0) (eth_frame ~src:(mac 9) ~dst:(mac 0));
  Engine.run engine;
  (* now mac 0 is known on port 0; a frame from port 0 to mac 0 is filtered *)
  Link.send eps.(0) (eth_frame ~src:(mac 9) ~dst:(mac 0));
  Engine.run engine;
  check Alcotest.bool "filtered" true ((Switch.stats sw).Switch.filtered >= 1)

let suite =
  [
    ( "link.p2p",
      [
        Alcotest.test_case "delivery latency" `Quick test_delivery_latency;
        Alcotest.test_case "fifo serialization" `Quick test_fifo_and_serialization;
        Alcotest.test_case "duplex independence" `Quick test_duplex_directions_independent;
        Alcotest.test_case "loss rate" `Quick test_loss_rate;
        Alcotest.test_case "queue overflow" `Quick test_queue_overflow;
      ] );
    ( "link.bus",
      [
        Alcotest.test_case "broadcast semantics" `Quick test_bus_broadcast_semantics;
        Alcotest.test_case "carrier sense defers" `Quick test_bus_defers_when_carrier_sensed;
        Alcotest.test_case "collision + recovery" `Quick
          test_bus_collision_in_vulnerable_window;
        Alcotest.test_case "testbed shared bus" `Quick test_testbed_shared_bus;
      ] );
    ( "link.switch",
      [
        Alcotest.test_case "floods unknown" `Quick test_switch_floods_unknown;
        Alcotest.test_case "learns ports" `Quick test_switch_learns;
        Alcotest.test_case "broadcast" `Quick test_switch_broadcast;
        Alcotest.test_case "same-port filter" `Quick test_switch_filters_same_port;
      ] );
  ]
