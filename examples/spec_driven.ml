(* Scenario generation from a protocol expectation — the paper's stated
   long-term goal, demonstrated: no FSL is written by hand here. We state
   WHAT must happen (faults to inject, bounds the responses must respect)
   and the generator produces the script, which then runs like any other.

   Run with: dune exec examples/spec_driven.exe *)

module Spec = Vw_spec.Spec
module Host = Vw_stack.Host
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
open Vw_sim

let ping =
  { Spec.filter = "udp_ping"; from_node = "alice"; to_node = "bob"; dir = `Recv }

let pong =
  { Spec.filter = "udp_pong"; from_node = "bob"; to_node = "alice"; dir = `Send }

let () =
  (* the "protocol specification": a request/response service under a
     burst of loss must still answer, and must never answer more than
     once per request *)
  let spec =
    Spec.create ~name:"generated_loss_burst" ~inactivity_timeout:1.0
      ~filters:
        [
          ("udp_ping", "(34 2 0x1388), (36 2 0x1389)");
          ("udp_pong", "(34 2 0x1389), (36 2 0x1388)");
        ]
      ~nodes:
        [
          ("alice", "02:00:00:00:00:0a", "10.0.0.10");
          ("bob", "02:00:00:00:00:0b", "10.0.0.11");
        ]
      ()
  in
  Spec.inject spec (Spec.Drop_window (ping, 3, 6));
  Spec.expect spec (Spec.At_least (ping, 8));
  Spec.expect spec (Spec.At_most (pong, 20));
  Spec.expect spec (Spec.After (ping, 8, pong, 2));

  let script = Spec.to_script spec in
  print_endline "Generated FSL script:";
  print_endline "---------------------";
  print_string script;
  print_endline "---------------------";

  let tables =
    match Vw_fsl.Compile.parse_and_compile script with
    | Ok t -> t
    | Error e -> failwith ("generator bug: " ^ e)
  in
  let testbed = Testbed.of_node_table tables in
  let workload tb =
    let engine = Testbed.engine tb in
    let alice = Testbed.host (Testbed.node tb "alice") in
    let bob = Testbed.host (Testbed.node tb "bob") in
    Host.udp_bind bob ~port:0x1389 (fun ~src ~src_port payload ->
        Host.udp_send bob ~src_port:0x1389 ~dst:src ~dst_port:src_port payload);
    Host.udp_bind alice ~port:0x1388 (fun ~src:_ ~src_port:_ _ -> ());
    for i = 0 to 11 do
      Engine.schedule_after engine
        ~delay:(i * Simtime.ms 10)
        (fun () ->
          Host.udp_send alice ~src_port:0x1388 ~dst:(Host.ip bob)
            ~dst_port:0x1389 (Bytes.create 32))
    done
  in
  match Scenario.run testbed ~script ~max_duration:(Simtime.sec 10.0) ~workload with
  | Error e -> failwith e
  | Ok result ->
      Format.printf "@.%a@." Scenario.pp_result result;
      print_endline
        (if Scenario.passed result then
           "PASS: the generated scenario injected the loss burst and \
            verified the bounds."
         else "FAIL")
