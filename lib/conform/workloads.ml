module Testbed = Vw_core.Testbed
module Host = Vw_stack.Host
module Tcp = Vw_tcp.Tcp
module Rether = Vw_rether.Rether

type kind = Udp_ping | Udp_blast | Tcp_stream | Rether_ring | Http_failover | Idle

let kind_to_string = function
  | Udp_ping -> "udp-ping"
  | Udp_blast -> "udp-blast"
  | Tcp_stream -> "tcp-stream"
  | Rether_ring -> "rether"
  | Http_failover -> "http-failover"
  | Idle -> "idle"

let kind_of_string = function
  | "udp-ping" -> Ok Udp_ping
  | "udp-blast" -> Ok Udp_blast
  | "tcp-stream" -> Ok Tcp_stream
  | "rether" -> Ok Rether_ring
  | "http-failover" -> Ok Http_failover
  | "idle" -> Ok Idle
  | s -> Error (Printf.sprintf "unknown workload %S" s)

(* Built-in workloads so any two-node (or four-node) script can be driven
   from the command line. They follow the paper's conventions: TCP flows
   use ports 0x6000 -> 0x4000 between the first and last nodes of the node
   table; UDP ping uses 0x1388 -> 0x1389. *)
let make kind ~bytes testbed =
  let all = Testbed.nodes testbed in
  let first = List.hd all in
  let last = List.nth all (List.length all - 1) in
  match kind with
  | Idle -> ()
  | Udp_blast ->
      (* One-way firehose: bursts of UDP frames are hand-built (frame i
         carries IP ident i) and injected at the sender's egress FIE via
         [Testbed.process_batch], one 32-frame burst per simulated
         millisecond. *)
      let engine = Testbed.engine testbed in
      let ha = Testbed.host first and hb = Testbed.host last in
      Host.udp_bind hb ~port:0x1389 (fun ~src:_ ~src_port:_ _ -> ());
      let count = max 1 (bytes / 64) in
      let frame i =
        let udp =
          Vw_net.Udp.make ~src_port:0x1388 ~dst_port:0x1389 (Bytes.make 64 'b')
        in
        let ip =
          Vw_net.Ipv4.make ~ident:(i land 0xffff)
            ~protocol:Vw_net.Ipv4.protocol_udp ~src:(Host.ip ha)
            ~dst:(Host.ip hb)
            (Vw_net.Udp.to_bytes ~src:(Host.ip ha) ~dst:(Host.ip hb) udp)
        in
        Vw_net.Eth.make ~dst:(Host.mac hb) ~src:(Host.mac ha)
          ~ethertype:Vw_net.Eth.ethertype_ipv4
          (Vw_net.Ipv4.to_bytes ip)
      in
      let burst = 32 in
      let rec tick sent =
        if sent < count && not (Vw_sim.Engine.stop_requested engine) then begin
          let n = min burst (count - sent) in
          let frames = List.init n (fun j -> frame (sent + j)) in
          ignore
            (Testbed.process_batch testbed first Vw_stack.Hook.Egress frames);
          Vw_sim.Engine.schedule_after engine ~delay:(Vw_sim.Simtime.ms 1)
            (fun () -> tick (sent + n))
        end
      in
      Vw_sim.Engine.schedule_after engine ~delay:0 (fun () -> tick 0)
  | Udp_ping ->
      let engine = Testbed.engine testbed in
      let a = Testbed.host first and b = Testbed.host last in
      Host.udp_bind b ~port:0x1389 (fun ~src ~src_port payload ->
          Host.udp_send b ~src_port:0x1389 ~dst:src ~dst_port:src_port payload);
      Host.udp_bind a ~port:0x1388 (fun ~src:_ ~src_port:_ _ -> ());
      let count = max 1 (bytes / 64) in
      for i = 0 to count - 1 do
        Vw_sim.Engine.schedule_after engine
          ~delay:(i * Vw_sim.Simtime.ms 5)
          (fun () ->
            Host.udp_send a ~src_port:0x1388 ~dst:(Host.ip b)
              ~dst_port:0x1389 (Bytes.make 64 '\000'))
      done
  | Tcp_stream ->
      ignore
        (Tcp.listen (Testbed.tcp last) ~port:0x4000 ~on_accept:(fun conn ->
             Tcp.on_data conn (fun _ -> ())));
      let conn =
        Tcp.connect (Testbed.tcp first) ~src_port:0x6000
          ~dst:(Host.ip (Testbed.host last))
          ~dst_port:0x4000
      in
      Tcp.on_established conn (fun () ->
          Tcp.send conn (Bytes.make bytes '\000'))
  | Http_failover ->
      (* first node fetches from the second until it stops answering, then
         retries the same page against the next server — the
         examples/http_failover.ml client, as a reusable workload *)
      let engine = Testbed.engine testbed in
      let client = Testbed.tcp first in
      let servers =
        match all with
        | _ :: rest when rest <> [] -> Array.of_list rest
        | _ -> [| first |]
      in
      Array.iter
        (fun n ->
          ignore
            (Vw_apps.Http.Server.start (Testbed.tcp n) ~port:80
               ~handler:(fun req ->
                 Vw_apps.Http.response
                   (Printf.sprintf "%s:%s" (Testbed.name n)
                      req.Vw_apps.Http.path))))
        servers;
      let current = ref 0 in
      let pages = max 1 (bytes / 64) in
      let rec fetch i =
        if i <= pages then
          Vw_apps.Http.Client.get client
            ~timeout:(Vw_sim.Simtime.ms 800)
            ~dst:(Host.ip (Testbed.host servers.(!current)))
            ~dst_port:80
            ~path:(Printf.sprintf "/page%d" i)
            (function
              | Ok _ ->
                  Vw_sim.Engine.schedule_after engine
                    ~delay:(Vw_sim.Simtime.ms 50) (fun () -> fetch (i + 1))
              | Error _ ->
                  current := (!current + 1) mod Array.length servers;
                  fetch i)
      in
      fetch 1
  | Rether_ring ->
      let ring = List.map (fun n -> Host.mac (Testbed.host n)) all in
      let config = Rether.default_config ~ring in
      let rethers =
        List.map (fun n -> Rether.install ~config (Testbed.host n)) all
      in
      (match rethers with r :: _ -> Rether.start r | [] -> ());
      if List.length all >= 2 then begin
        ignore
          (Tcp.listen (Testbed.tcp last) ~port:0x4000 ~on_accept:(fun conn ->
               Tcp.on_data conn (fun _ -> ())));
        let conn =
          Tcp.connect (Testbed.tcp first) ~src_port:0x6000
            ~dst:(Host.ip (Testbed.host last))
            ~dst_port:0x4000
        in
        Tcp.on_established conn (fun () ->
            Tcp.send conn (Bytes.make bytes '\000'))
      end

(* Per-script run directives, embedded as comments:
     # vwctl: workload=udp-ping bytes=640 expect=fail duration=10 arp=on
   Unknown keys are rejected so typos do not silently change a test. *)
type directives = {
  d_workload : kind;
  d_bytes : int;
  d_expect : [ `Pass | `Fail ];
  d_duration : float;
  d_arp : bool;
}

let parse_directives src =
  let defaults =
    {
      d_workload = Tcp_stream;
      d_bytes = 1_000_000;
      d_expect = `Pass;
      d_duration = 60.0;
      d_arp = false;
    }
  in
  let lines = String.split_on_char '\n' src in
  List.fold_left
    (fun acc line ->
      match acc with
      | Error _ -> acc
      | Ok d ->
          let line = String.trim line in
          let prefix = "# vwctl:" in
          if
            String.length line >= String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
          then
            let rest =
              String.sub line (String.length prefix)
                (String.length line - String.length prefix)
            in
            let kvs =
              String.split_on_char ' ' rest
              |> List.filter (fun s -> String.trim s <> "")
            in
            List.fold_left
              (fun acc kv ->
                match acc with
                | Error _ -> acc
                | Ok d -> (
                    match String.split_on_char '=' kv with
                    | [ "workload"; v ] -> (
                        match kind_of_string v with
                        | Ok k -> Ok { d with d_workload = k }
                        | Error e -> Error e)
                    | [ "bytes"; v ] -> (
                        match int_of_string_opt v with
                        | Some n -> Ok { d with d_bytes = n }
                        | None -> Error (Printf.sprintf "bad bytes %S" v))
                    | [ "expect"; "pass" ] -> Ok { d with d_expect = `Pass }
                    | [ "expect"; "fail" ] -> Ok { d with d_expect = `Fail }
                    | [ "duration"; v ] -> (
                        match float_of_string_opt v with
                        | Some f -> Ok { d with d_duration = f }
                        | None -> Error (Printf.sprintf "bad duration %S" v))
                    | [ "arp"; "on" ] -> Ok { d with d_arp = true }
                    | [ "arp"; "off" ] -> Ok { d with d_arp = false }
                    | _ -> Error (Printf.sprintf "bad directive %S" kv)))
              (Ok d) kvs
          else acc)
    (Ok defaults) lines

let directives_config d =
  if d.d_arp then
    Some
      { Testbed.default_config with arp = Some Vw_stack.Arp.default_config }
  else None
