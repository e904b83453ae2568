(* Stress and robustness properties across the whole system:
   - TCP must deliver its byte stream intact under any scripted fault mix
     (the tool must never be able to make a correct protocol LOOK broken
     by corrupting data invisibly);
   - the shared-bus MAC must never wedge or lose frames silently
     (regression for a same-instant completion/attempt race);
   - the wire codecs must be total on garbage;
   - a diverging rule cascade must be reported, not loop forever. *)

open Vw_sim
module Host = Vw_stack.Host
module Tcp = Vw_tcp.Tcp
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario

let check = Alcotest.check
let qtest = Test_seed.qtest

(* --- TCP integrity under scripted fault matrices --- *)

let fault_header =
  {|
FILTER_TABLE
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
TCP_ack: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:46:61:af:fe:23 192.168.1.1
node2 00:23:31:df:af:12 192.168.1.2
END
SCENARIO fault_matrix
D: (TCP_data, node1, node2, RECV)
A: (TCP_ack, node2, node1, RECV)
(TRUE) >> ENABLE_CNTR( D ); ENABLE_CNTR( A );
|}

type scripted_fault =
  | F_drop_data of int * int
  | F_drop_acks of int * int
  | F_dup_data of int
  | F_delay_data of int
  | F_reorder_data of int

let fault_rule = function
  | F_drop_data (lo, hi) ->
      Printf.sprintf "((D > %d) && (D <= %d)) >> DROP( TCP_data, node1, node2, RECV );"
        lo hi
  | F_drop_acks (lo, hi) ->
      Printf.sprintf "((A > %d) && (A <= %d)) >> DROP( TCP_ack, node2, node1, RECV );"
        lo hi
  | F_dup_data n ->
      Printf.sprintf "((D = %d)) >> DUP( TCP_data, node1, node2, RECV );" n
  | F_delay_data n ->
      Printf.sprintf "((D = %d)) >> DELAY( TCP_data, node1, node2, RECV, 40ms );" n
  | F_reorder_data n ->
      Printf.sprintf
        "((D = %d)) >> REORDER( TCP_data, node1, node2, RECV, 3, [2 3 1] );" n

let run_fault_matrix faults ~bytes =
  let script =
    fault_header ^ String.concat "\n" (List.map fault_rule faults) ^ "\nEND"
  in
  match Vw_fsl.Compile.parse_and_compile script with
  | Error e -> Alcotest.failf "fault matrix script: %s" e
  | Ok tables -> (
      let testbed = Testbed.of_node_table tables in
      let received = Buffer.create bytes in
      let sent = String.init bytes (fun i -> Char.chr ((i * 31) mod 256)) in
      let workload tb =
        let node1 = Testbed.node tb "node1" in
        let node2 = Testbed.node tb "node2" in
        ignore
          (Tcp.listen (Testbed.tcp node2) ~port:0x4000 ~on_accept:(fun conn ->
               Tcp.on_data conn (fun p -> Buffer.add_bytes received p)));
        let conn =
          Tcp.connect (Testbed.tcp node1) ~src_port:0x6000
            ~dst:(Host.ip (Testbed.host node2))
            ~dst_port:0x4000
        in
        Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.of_string sent))
      in
      match
        Scenario.run testbed ~script ~max_duration:(Simtime.sec 60.0) ~workload
      with
      | Error e -> Alcotest.fail e
      | Ok _ -> (sent, Buffer.contents received))

let test_tcp_survives_drop_storm () =
  let sent, received =
    run_fault_matrix
      [ F_drop_data (5, 8); F_drop_data (20, 21); F_drop_acks (10, 14) ]
      ~bytes:40_000
  in
  check Alcotest.int "all bytes delivered" (String.length sent)
    (String.length received);
  check Alcotest.bool "content identical" true (String.equal sent received)

let test_tcp_survives_dup_reorder_delay () =
  let sent, received =
    run_fault_matrix
      [ F_dup_data 3; F_reorder_data 10; F_delay_data 22; F_dup_data 30 ]
      ~bytes:40_000
  in
  check Alcotest.int "all bytes delivered" (String.length sent)
    (String.length received);
  check Alcotest.bool "content identical, no duplication leaked" true
    (String.equal sent received)

let prop_tcp_integrity_under_random_faults =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4)
        (let* kind = int_range 0 4 in
         let* n = int_range 1 25 in
         let* w = int_range 1 4 in
         return
           (match kind with
           | 0 -> F_drop_data (n, n + w)
           | 1 -> F_drop_acks (n, n + w)
           | 2 -> F_dup_data n
           | 3 -> F_delay_data n
           | _ -> F_reorder_data n)))
  in
  QCheck.Test.make ~name:"tcp stream intact under any scripted fault mix"
    ~count:15 (QCheck.make gen) (fun faults ->
      let sent, received = run_fault_matrix faults ~bytes:30_000 in
      String.equal sent received)

(* --- shared-bus liveness --- *)

let prop_bus_never_wedges =
  (* Random paced cross-traffic on a 2..4 station bus: when the sources
     stop, every queue must drain and every accepted frame must be
     delivered (n-1 copies each) or counted as dropped. *)
  let gen =
    QCheck.Gen.(
      let* stations = int_range 2 4 in
      let* frames = int_range 5 60 in
      let* gap_us = int_range 1 200 in
      let* size = int_range 20 1500 in
      let* seed = int_range 0 10_000 in
      return (stations, frames, gap_us, size, seed))
  in
  QCheck.Test.make ~name:"bus drains all queues and loses nothing silently"
    ~count:60 (QCheck.make gen) (fun (stations, frames, gap_us, size, seed) ->
      let engine = Engine.create ~seed () in
      let bus =
        Vw_link.Bus.create engine
          {
            Vw_link.Link.default_config with
            propagation = Simtime.ns 500;
            max_queue = 1024;
          }
          ~n:stations
      in
      let received = ref 0 in
      for i = 0 to stations - 1 do
        Vw_link.Bus.set_receive (Vw_link.Bus.endpoint bus i) (fun _ ->
            incr received)
      done;
      for i = 0 to stations - 1 do
        for k = 0 to frames - 1 do
          Engine.schedule_at engine
            ~time:(Simtime.us ((k * gap_us) + (i * 7)))
            (fun () ->
              Vw_link.Bus.send (Vw_link.Bus.endpoint bus i)
                (Vw_net.Eth.make ~dst:Vw_net.Mac.broadcast
                   ~src:(Vw_net.Mac.of_int i) ~ethertype:0
                   (Bytes.create (size - Vw_net.Eth.header_size))))
        done
      done;
      Engine.run engine ~until:(Simtime.sec 30.0);
      let stats = Vw_link.Bus.stats bus in
      let queued =
        let rec total i acc =
          if i = stations then acc
          else
            total (i + 1)
              (acc + Vw_link.Bus.queue_length (Vw_link.Bus.endpoint bus i))
        in
        total 0 0
      in
      let sent_total = stations * frames in
      queued = 0
      && stats.Vw_link.Media_stats.sent = sent_total
      && !received
         = (sent_total - stats.Vw_link.Media_stats.dropped_collision
           - stats.Vw_link.Media_stats.dropped_queue)
           * (stations - 1))

(* --- codec totality on garbage --- *)

let prop_control_codec_total =
  QCheck.Test.make ~name:"control codec never raises on garbage" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
      match Vw_engine.Control.of_payload (Bytes.of_string s) with
      | Ok _ | Error _ -> true)

let prop_tables_codec_total =
  QCheck.Test.make ~name:"tables codec never raises on garbage" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 256))
    (fun s ->
      match Vw_fsl.Tables_codec.of_bytes (Bytes.of_string s) with
      | Ok _ | Error _ -> true)

let prop_packet_codecs_total =
  QCheck.Test.make ~name:"ip/udp/tcp decoders never raise on garbage"
    ~count:500
    QCheck.(string_of_size (Gen.int_range 0 128))
    (fun s ->
      let b = Bytes.of_string s in
      let src = Vw_net.Ip_addr.of_host_index 1 in
      let dst = Vw_net.Ip_addr.of_host_index 2 in
      (match Vw_net.Ipv4.of_bytes b with Ok _ | Error _ -> ());
      (match Vw_net.Udp.of_bytes ~src ~dst b with Ok _ | Error _ -> ());
      (match Vw_net.Tcp_segment.of_bytes ~src ~dst b with Ok _ | Error _ -> ());
      if Bytes.length b >= Vw_net.Eth.header_size then
        ignore (Vw_net.Frame_view.of_frame (Vw_net.Eth.of_bytes b));
      true)

(* --- cascade divergence is reported, not looped --- *)

let test_cascade_divergence_reported () =
  let script =
    {|
FILTER_TABLE
udp_ping: (34 2 0x1388), (36 2 0x1389)
END
NODE_TABLE
alice 02:00:00:00:00:0a 10.0.0.10
bob 02:00:00:00:00:0b 10.0.0.11
END
SCENARIO oscillator
P: (udp_ping, alice, bob, RECV)
X: (bob)
(TRUE) >> ENABLE_CNTR( P );
((P = 1) && (X = 0)) >> INCR_CNTR( X, 1 );
((X = 1)) >> RESET_CNTR( X );
END
|}
  in
  match Vw_fsl.Compile.parse_and_compile script with
  | Error e -> Alcotest.fail e
  | Ok tables -> (
      let testbed = Testbed.of_node_table tables in
      let workload tb =
        let alice = Testbed.host (Testbed.node tb "alice") in
        let bob = Testbed.host (Testbed.node tb "bob") in
        Host.udp_bind bob ~port:0x1389 (fun ~src:_ ~src_port:_ _ -> ());
        Host.udp_send alice ~src_port:0x1388 ~dst:(Host.ip bob)
          ~dst_port:0x1389 (Bytes.create 8)
      in
      match
        Scenario.run testbed ~script ~max_duration:(Simtime.sec 2.0) ~workload
      with
      | Error e -> Alcotest.fail e
      | Ok result ->
          (* the oscillating pair of rules cannot converge: the engine must
             bound the cascade and report it (rule index -1) *)
          check Alcotest.bool "divergence flagged" true
            (List.exists
               (fun e -> e.Scenario.err_rule = -1)
               result.Scenario.errors);
          let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
          check Alcotest.bool "overflow counted" true
            ((Vw_engine.Fie.stats bob_fie).Vw_engine.Fie.cascade_overflows >= 1))

let suite =
  [
    ( "stress.tcp_faults",
      [
        Alcotest.test_case "drop storm" `Quick test_tcp_survives_drop_storm;
        Alcotest.test_case "dup + reorder + delay" `Quick
          test_tcp_survives_dup_reorder_delay;
        qtest prop_tcp_integrity_under_random_faults;
      ] );
    ( "stress.bus",
      [ qtest prop_bus_never_wedges ] );
    ( "stress.codecs",
      [
        qtest prop_control_codec_total;
        qtest prop_tables_codec_total;
        qtest prop_packet_codecs_total;
      ] );
    ( "stress.cascade",
      [
        Alcotest.test_case "divergence reported" `Quick
          test_cascade_divergence_reported;
      ] );
  ]
