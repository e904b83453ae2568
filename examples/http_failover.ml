(* A web-server-cluster scenario (the testbed family the paper's §3.1
   motivates): a client fetches from web1 until VirtualWire crashes it,
   then fails over to web2. The FSL script injects the crash after the
   third response and verifies — purely from the wire — that the standby
   actually takes over.

   Run with: dune exec examples/http_failover.exe *)

open Vw_sim
module Host = Vw_stack.Host
module Http = Vw_apps.Http
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario

(* HTTP response bodies travel from server port 80 (0x0050 at frame offset
   34) as PSH-flagged data segments (0x08 in the TCP flags at offset 47) —
   matching on PSH counts pages rather than every ack of the exchange. The
   same filter serves both servers; the counters' node endpoints tell them
   apart. *)
let script =
  {|
FILTER_TABLE
http_resp: (34 2 0x0050), (47 1 0x08 0x08)
END
NODE_TABLE
client 02:00:00:00:00:01 10.0.0.1
web1 02:00:00:00:00:02 10.0.0.2
web2 02:00:00:00:00:03 10.0.0.3
END
SCENARIO http_failover 3sec
RESP1: (http_resp, web1, client, RECV)
RESP2: (http_resp, web2, client, RECV)
(TRUE) >> ENABLE_CNTR( RESP1 ); ENABLE_CNTR( RESP2 );
/* fault: crash the primary after it has served three responses */
((RESP1 = 3)) >> FAIL( web1 );
/* analysis: the standby must end up serving; two responses prove it */
((RESP2 = 2)) >> STOP;
END
|}

let () =
  let tables =
    match Vw_fsl.Compile.parse_and_compile script with
    | Ok t -> t
    | Error e -> failwith e
  in
  let testbed = Testbed.of_node_table tables in
  let fetched = ref [] in
  let failovers = ref 0 in

  let workload tb =
    let engine = Testbed.engine tb in
    let client = Testbed.tcp (Testbed.node tb "client") in
    let web1 = Testbed.node tb "web1" in
    let web2 = Testbed.node tb "web2" in
    let serve name = fun req ->
      Http.response (Printf.sprintf "%s:%s" name req.Http.path)
    in
    ignore
      (Http.Server.start (Testbed.tcp web1) ~port:80 ~handler:(serve "web1"));
    ignore
      (Http.Server.start (Testbed.tcp web2) ~port:80 ~handler:(serve "web2"));
    let servers =
      [| Host.ip (Testbed.host web1); Host.ip (Testbed.host web2) |]
    in
    let current = ref 0 in
    let rec fetch i =
      if i <= 8 then
        Http.Client.get client ~timeout:(Simtime.ms 800)
          ~dst:servers.(!current) ~dst_port:80
          ~path:(Printf.sprintf "/page%d" i)
          (function
            | Ok resp ->
                fetched := resp.Http.resp_body :: !fetched;
                Engine.schedule_after engine ~delay:(Simtime.ms 50)
                  (fun () -> fetch (i + 1))
            | Error _ ->
                (* primary is gone: switch to the standby and retry the
                   same page *)
                incr failovers;
                current := 1 - !current;
                fetch i)
    in
    fetch 1
  in

  match Scenario.run testbed ~script ~max_duration:(Simtime.sec 30.0) ~workload with
  | Error e -> failwith e
  | Ok result ->
      Format.printf "%a@." Scenario.pp_result result;
      Printf.printf "client failovers: %d\n" !failovers;
      Printf.printf "pages fetched, in order:\n";
      List.iter (fun body -> Printf.printf "  %s\n" body) (List.rev !fetched);
      if Scenario.passed result then
        print_endline
          "\nPASS: the script crashed web1 mid-service and proved, from\n\
           packets alone, that web2 took over within the deadline."
      else print_endline "\nFAIL: failover not observed"
