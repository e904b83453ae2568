(* Quickstart: the smallest end-to-end VirtualWire session.
   Run with: dune exec examples/quickstart.exe

   Two hosts exchange UDP ping/pong. The FSL script below injects two
   faults — it silently eats pings 3 and 4 at the receiver, and duplicates
   pong 6 on its way out — while counting everything it sees. No change to
   the ping/pong application is needed: that is the paper's whole point. *)

open Vw_sim
module Host = Vw_stack.Host
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Trace = Vw_core.Trace
module Fie = Vw_engine.Fie

(* 1. The test scenario, written in FSL (Section 4 of the paper).
      Filters match raw frame bytes: UDP source port at offset 34,
      destination port at offset 36. *)
let script =
  {|
FILTER_TABLE
udp_ping: (34 2 0x1388), (36 2 0x1389)
udp_pong: (34 2 0x1389), (36 2 0x1388)
END
NODE_TABLE
alice 02:00:00:00:00:0a 10.0.0.10
bob 02:00:00:00:00:0b 10.0.0.11
END
SCENARIO quickstart_drop_dup
PING: (udp_ping, alice, bob, RECV)
PONG: (udp_pong, bob, alice, SEND)
(TRUE) >> ENABLE_CNTR( PING ); ENABLE_CNTR( PONG );
((PING > 2) && (PING <= 4)) >> DROP( udp_ping, alice, bob, RECV );
((PONG = 6)) >> DUP( udp_pong, bob, alice, SEND );
END
|}

let () =
  (* 2. Build a testbed with the scenario's two nodes on a switched LAN. *)
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a",
         Vw_net.Ip_addr.of_string "10.0.0.10");
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b",
         Vw_net.Ip_addr.of_string "10.0.0.11");
      ]
  in

  (* 3. The application under test: a plain UDP ping/pong pair. It knows
        nothing about VirtualWire. *)
  let pings_received = ref 0 and pongs_received = ref 0 in
  let workload tb =
    let engine = Testbed.engine tb in
    let alice = Testbed.host (Testbed.node tb "alice") in
    let bob = Testbed.host (Testbed.node tb "bob") in
    Host.udp_bind bob ~port:5001 (fun ~src ~src_port payload ->
        incr pings_received;
        Host.udp_send bob ~src_port:5001 ~dst:src ~dst_port:src_port payload);
    Host.udp_bind alice ~port:5000 (fun ~src:_ ~src_port:_ _ ->
        incr pongs_received);
    for i = 0 to 9 do
      Engine.schedule_after engine
        ~delay:(i * Simtime.ms 5)
        (fun () ->
          Host.udp_send alice ~src_port:5000
            ~dst:(Host.ip bob) ~dst_port:5001
            (Bytes.of_string (Printf.sprintf "ping-%d" (i + 1))))
    done
  in

  (* 4. Run the scenario: compile the script on the control node, ship the
        six tables, START, drive the workload. *)
  (match
     Scenario.run testbed ~script ~max_duration:(Simtime.sec 2.0) ~workload
   with
  | Error e -> failwith e
  | Ok result ->
      Format.printf "%a@." Scenario.pp_result result;
      Printf.printf "alice sent 10 pings; bob saw %d (two were eaten)\n"
        !pings_received;
      Printf.printf "bob answered %d; alice saw %d (one was doubled)\n"
        !pings_received !pongs_received);

  (* 5. Inspect what the engines counted and what crossed the wire. *)
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  (match
     (Fie.counter_value bob_fie "PING", Fie.counter_value bob_fie "PONG")
   with
  | Some ping, Some pong ->
      Printf.printf "FAE counters at bob: PING=%d PONG=%d\n" ping pong
  | _ -> ());
  let trace = Testbed.trace testbed in
  Printf.printf "\nLast six frames of the capture (tcpdump replacement):\n";
  let entries = Trace.entries trace in
  let tail = List.filteri (fun i _ -> i >= List.length entries - 6) entries in
  List.iter (fun e -> Format.printf "  %a@." Trace.pp_entry e) tail
