(* Tests for the TCP implementation — the protocol under test in the
   paper's Section 6.1 case study. Beyond basic correctness, these pin the
   congestion-control behaviours the FSL script observes: slow-start
   doubling, the ssthresh crossover into congestion avoidance, and the
   ssthresh=2 / cwnd=1 state after a SYNACK drop. *)

open Vw_sim
module Host = Vw_stack.Host
module Hook = Vw_stack.Hook
module Tcp = Vw_tcp.Tcp

let check = Alcotest.check

let mac i = Vw_net.Mac.of_int i
let ip i = Vw_net.Ip_addr.of_host_index i

type world = {
  engine : Engine.t;
  host_a : Host.t;
  host_b : Host.t;
  stack_a : Tcp.stack;
  stack_b : Tcp.stack;
}

let world ?(loss = 0.0) ?(seed = 42) () =
  let engine = Engine.create ~seed () in
  let link =
    Vw_link.Link.create engine
      { Vw_link.Link.default_config with loss_rate = loss }
  in
  let host_a = Host.create engine ~name:"a" ~mac:(mac 1) ~ip:(ip 1) in
  let host_b = Host.create engine ~name:"b" ~mac:(mac 2) ~ip:(ip 2) in
  Host.attach host_a (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a link));
  Host.attach host_b (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_b link));
  Host.add_neighbor host_a (ip 2) (mac 2);
  Host.add_neighbor host_b (ip 1) (mac 1);
  {
    engine;
    host_a;
    host_b;
    stack_a = Tcp.attach host_a;
    stack_b = Tcp.attach host_b;
  }

(* A listening sink that accumulates everything it receives. *)
let sink w ~port =
  let data = Buffer.create 1024 in
  let conns = ref [] in
  ignore
    (Tcp.listen w.stack_b ~port ~on_accept:(fun conn ->
         conns := conn :: !conns;
         Tcp.on_data conn (fun payload -> Buffer.add_bytes data payload)));
  (data, conns)

let test_handshake () =
  let w = world () in
  let accepted = ref false and established = ref false in
  ignore
    (Tcp.listen w.stack_b ~port:80 ~on_accept:(fun conn ->
         accepted := true;
         Tcp.on_established conn (fun () -> ())));
  let conn = Tcp.connect w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80 in
  Tcp.on_established conn (fun () -> established := true);
  Engine.run w.engine;
  check Alcotest.bool "accepted" true !accepted;
  check Alcotest.bool "established" true !established;
  check Alcotest.string "client state" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state conn))

let test_data_transfer () =
  let w = world () in
  let data, _ = sink w ~port:80 in
  let conn = Tcp.connect w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80 in
  let message = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.of_string message));
  Engine.run w.engine;
  check Alcotest.string "bytes arrive intact, in order" message
    (Buffer.contents data)

let test_large_transfer_under_loss () =
  let w = world ~loss:0.05 ~seed:11 () in
  let data, _ = sink w ~port:80 in
  let conn = Tcp.connect w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80 in
  let message = String.init 200_000 (fun i -> Char.chr ((i * 7) mod 256)) in
  Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.of_string message));
  let allocated_before = Gc.allocated_bytes () in
  Engine.run w.engine ~until:(Simtime.sec 120.0);
  let allocated = Gc.allocated_bytes () -. allocated_before in
  check Alcotest.int "all bytes delivered" (String.length message)
    (Buffer.length data);
  check Alcotest.string "content intact" message (Buffer.contents data);
  check Alcotest.bool "loss exercised retransmission" true
    ((Tcp.stats conn).Tcp.retransmits > 0);
  (* each segment copies its own bytes, not the whole send buffer *)
  check Alcotest.bool "transfer allocates under 10 MB" true (allocated < 10e6)

(* Once a segment is built it owns a copy of its bytes (in the
   retransmission queue, until acknowledged), so the send buffer drops its
   segmentized prefix. After a fully acknowledged 1 MB transfer the sender
   holds a few thousand words, most of them the cwnd history Figure 5
   reads; the bound is far below the ~140 000 words of a buffer that
   keeps every byte sent. *)
let test_sender_releases_sent_bytes () =
  let w = world () in
  (* the receiver counts what arrives: the whole world is reachable from
     the sender, and a sink that kept the data would be counted too *)
  let received = ref 0 in
  ignore
    (Tcp.listen w.stack_b ~port:80 ~on_accept:(fun conn ->
         Tcp.on_data conn (fun payload ->
             received := !received + Bytes.length payload)));
  let conn = Tcp.connect w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80 in
  Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.create 1_000_000));
  Engine.run w.engine;
  check Alcotest.int "all bytes delivered" 1_000_000 !received;
  let words = Obj.reachable_words (Obj.repr conn) in
  if words >= 40_000 then
    Alcotest.failf "sender holds %d words after the transfer (bound 40000)"
      words

let test_slow_start_growth () =
  let w = world () in
  let _, _ = sink w ~port:80 in
  let conn = Tcp.connect w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80 in
  Tcp.on_established conn (fun () ->
      Tcp.send conn (Bytes.create 20_000) (* 20 segments *));
  Engine.run w.engine;
  (* each ack during slow start grows cwnd by 1: after 20 acks from cwnd=1,
     cwnd = 21 (ssthresh 64 never reached) *)
  check Alcotest.int "cwnd grew by one per ack" 21 (Tcp.cwnd conn);
  check Alcotest.int "no timeouts" 0 (Tcp.stats conn).Tcp.timeouts

let test_congestion_avoidance_transition () =
  let w = world () in
  let _, _ = sink w ~port:80 in
  let config = { Tcp.default_config with initial_ssthresh = 4 } in
  let conn =
    Tcp.connect ~config w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80
  in
  Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.create 60_000));
  Engine.run w.engine;
  (* slow start to ssthresh, then ~1/cwnd growth: far below doubling *)
  let final = Tcp.cwnd conn in
  check Alcotest.bool "left slow start" true (final > 4);
  check Alcotest.bool "grew sub-linearly after ssthresh" true (final < 15);
  (* cwnd history must cross ssthresh exactly once, without jumps *)
  let history = List.map snd (Tcp.cwnd_history conn) in
  let steps_ok =
    let rec go = function
      | a :: (b :: _ as rest) -> (b - a <= 1 || a - b >= 0) && go rest
      | _ -> true
    in
    go history
  in
  check Alcotest.bool "cwnd grows in steps of one" true steps_ok

let test_broken_no_ca_keeps_doubling () =
  let w = world () in
  let _, _ = sink w ~port:80 in
  let config =
    {
      Tcp.default_config with
      initial_ssthresh = 4;
      broken_no_congestion_avoidance = true;
    }
  in
  let conn =
    Tcp.connect ~config w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80
  in
  Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.create 60_000));
  Engine.run w.engine;
  check Alcotest.bool "bug: cwnd kept slow-start growth" true (Tcp.cwnd conn > 30)

let drop_nth_synack w ~nth =
  (* an ingress hook on the client that eats the nth SYNACK — what the
     VirtualWire DROP fault does in the Section 6.1 scenario *)
  let seen = ref 0 in
  ignore
    (Host.add_hook w.host_a Hook.Ingress ~priority:50 ~name:"drop-synack"
       (fun frame ->
         match (Vw_net.Frame_view.of_frame frame).content with
         | Vw_net.Frame_view.Ip (_, Vw_net.Frame_view.Tcp_view seg)
           when seg.flags.syn && seg.flags.ack ->
             incr seen;
             if !seen = nth then Hook.Drop else Hook.Accept frame
         | _ -> Hook.Accept frame))

let test_synack_drop_resets_ssthresh () =
  let w = world () in
  let _, _ = sink w ~port:80 in
  drop_nth_synack w ~nth:1;
  let conn = Tcp.connect w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80 in
  let established = ref false in
  Tcp.on_established conn (fun () -> established := true);
  Engine.run w.engine ~until:(Simtime.sec 10.0);
  check Alcotest.bool "established after SYN retransmission" true !established;
  (* the paper: "It caused a retransmission of the SYN packet. Hence
     ssthresh is reset to 2 and cwnd to 1." *)
  check Alcotest.int "ssthresh = 2" 2 (Tcp.ssthresh conn);
  check Alcotest.int "cwnd = 1" 1 (Tcp.cwnd conn);
  check Alcotest.int "one timeout" 1 (Tcp.stats conn).Tcp.timeouts

let test_fast_retransmit () =
  let w = world () in
  let data, _ = sink w ~port:80 in
  (* drop exactly one data segment in the middle of the stream *)
  let dropped = ref false in
  ignore
    (Host.add_hook w.host_a Hook.Egress ~priority:50 ~name:"drop-one"
       (fun frame ->
         match (Vw_net.Frame_view.of_frame frame).content with
         | Vw_net.Frame_view.Ip (_, Vw_net.Frame_view.Tcp_view seg)
           when Bytes.length seg.payload > 0
                && (not !dropped)
                && seg.seq > 40_000 ->
             dropped := true;
             Hook.Drop
         | _ -> Hook.Accept frame))
  |> ignore;
  let config = { Tcp.default_config with initial_ssthresh = 64 } in
  let conn =
    Tcp.connect ~config w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80
  in
  let message = String.init 100_000 (fun i -> Char.chr (i mod 256)) in
  Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.of_string message));
  Engine.run w.engine ~until:(Simtime.sec 30.0);
  check Alcotest.int "all delivered" (String.length message) (Buffer.length data);
  check Alcotest.bool "recovered via fast retransmit, not RTO" true
    ((Tcp.stats conn).Tcp.fast_retransmits >= 1);
  check Alcotest.int "no RTO needed" 0 (Tcp.stats conn).Tcp.timeouts

let test_close_sequence () =
  let w = world () in
  let _, conns = sink w ~port:80 in
  let conn = Tcp.connect w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80 in
  let closed = ref false in
  Tcp.on_closed conn (fun () -> closed := true);
  Tcp.on_established conn (fun () ->
      Tcp.send conn (Bytes.of_string "bye");
      Tcp.close conn);
  Engine.run w.engine ~until:(Simtime.sec 5.0);
  (match !conns with
  | [ server ] ->
      check Alcotest.string "server side saw the FIN" "CLOSE_WAIT"
        (Tcp.state_to_string (Tcp.state server));
      Tcp.close server;
      Engine.run w.engine ~until:(Simtime.sec 10.0)
  | _ -> Alcotest.fail "expected one server connection");
  check Alcotest.bool "client fully closed" true !closed

let test_rst_on_unknown_port () =
  let w = world () in
  let conn = Tcp.connect w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:81 in
  let closed = ref false in
  Tcp.on_closed conn (fun () -> closed := true);
  Engine.run w.engine ~until:(Simtime.sec 5.0);
  check Alcotest.bool "reset" true !closed;
  check Alcotest.string "client closed" "CLOSED"
    (Tcp.state_to_string (Tcp.state conn))

let test_ignore_cwnd_bug_floods () =
  let w = world () in
  let _, _ = sink w ~port:80 in
  let config = { Tcp.default_config with broken_ignore_cwnd = true } in
  let conn =
    Tcp.connect ~config w.stack_a ~src_port:5000 ~dst:(ip 2) ~dst_port:80
  in
  Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.create 50_000));
  (* one event pump: after the handshake the buggy sender bursts the whole
     advertised window at once *)
  Engine.run w.engine ~until:(Simtime.sec 1.0);
  check Alcotest.bool "burst exceeded any sane initial window" true
    ((Tcp.stats conn).Tcp.segments_sent >= 50)

let suite =
  [
    ( "tcp.basic",
      [
        Alcotest.test_case "handshake" `Quick test_handshake;
        Alcotest.test_case "data transfer" `Quick test_data_transfer;
        Alcotest.test_case "200KB over 5% loss" `Quick test_large_transfer_under_loss;
        Alcotest.test_case "close sequence" `Quick test_close_sequence;
        Alcotest.test_case "RST on unknown port" `Quick test_rst_on_unknown_port;
        Alcotest.test_case "sender releases sent bytes" `Quick
          test_sender_releases_sent_bytes;
      ] );
    ( "tcp.congestion",
      [
        Alcotest.test_case "slow start growth" `Quick test_slow_start_growth;
        Alcotest.test_case "congestion avoidance transition" `Quick
          test_congestion_avoidance_transition;
        Alcotest.test_case "SYNACK drop resets ssthresh/cwnd" `Quick
          test_synack_drop_resets_ssthresh;
        Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit;
        Alcotest.test_case "bug knob: no CA" `Quick test_broken_no_ca_keeps_doubling;
        Alcotest.test_case "bug knob: ignore cwnd" `Quick test_ignore_cwnd_bug_floods;
      ] );
  ]
