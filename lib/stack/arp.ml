let src = Logs.Src.create "vw.arp" ~doc:"ARP resolver"

module Log = (val Logs.src_log src : Logs.LOG)
module Arp_packet = Vw_net.Arp_packet
module Int_tbl = Vw_util.Int_tbl

type config = {
  request_timeout : Vw_sim.Simtime.t;
  max_attempts : int;
  cache_ttl : Vw_sim.Simtime.t;
}

let default_config =
  {
    request_timeout = Vw_sim.Simtime.ms 100;
    max_attempts = 3;
    cache_ttl = Vw_sim.Simtime.sec 60.0;
  }

type stats = {
  mutable requests_sent : int;
  mutable replies_sent : int;
  mutable replies_received : int;
  mutable resolutions : int;
  mutable failures : int;
  mutable expirations : int;
}

type probe = { mutable attempts : int; mutable timer : Host.timer option }

type t = {
  host : Host.t;
  config : config;
  stats : stats;
  probes : probe Int_tbl.t; (* keyed by [(ip :> int)] *)
}

let stats t = t.stats
let resolving t = Int_tbl.length t.probes

let send_arp t ~dst ~op ~target_mac ~target_ip =
  let packet =
    {
      Arp_packet.op;
      sender_mac = Host.mac t.host;
      sender_ip = Host.ip t.host;
      target_mac;
      target_ip;
    }
  in
  Host.send_frame t.host
    (Vw_net.Eth.make ~dst ~src:(Host.mac t.host)
       ~ethertype:Arp_packet.ethertype
       (Arp_packet.to_bytes packet))

let rec send_request t probe ip =
  probe.attempts <- probe.attempts + 1;
  t.stats.requests_sent <- t.stats.requests_sent + 1;
  send_arp t ~dst:Vw_net.Mac.broadcast ~op:Arp_packet.Request
    ~target_mac:(Vw_net.Mac.of_string "00:00:00:00:00:00") ~target_ip:ip;
  probe.timer <-
    Some
      (Host.set_timer t.host ~delay:t.config.request_timeout (fun () ->
           on_timeout t probe ip))

and on_timeout t probe (ip : Vw_net.Ip_addr.t) =
  if Int_tbl.mem t.probes (ip :> int) then
    if probe.attempts >= t.config.max_attempts then begin
      Int_tbl.remove t.probes (ip :> int);
      t.stats.failures <- t.stats.failures + 1;
      let dropped = Host.drop_pending t.host ip in
      Log.info (fun m ->
          m "%s: ARP gave up on %s (%d parked packets dropped)"
            (Host.name t.host)
            (Vw_net.Ip_addr.to_string ip)
            dropped)
    end
    else send_request t probe ip

let on_miss t (ip : Vw_net.Ip_addr.t) =
  if not (Int_tbl.mem t.probes (ip :> int)) then begin
    let probe = { attempts = 0; timer = None } in
    Int_tbl.replace t.probes (ip :> int) probe;
    send_request t probe ip
  end

let install_binding t ~ip ~mac =
  Host.add_neighbor t.host ip mac;
  t.stats.resolutions <- t.stats.resolutions + 1;
  (* age the entry out so stale bindings cannot persist forever *)
  ignore
    (Host.set_timer t.host ~delay:t.config.cache_ttl (fun () ->
         match Host.neighbor t.host ip with
         | Some current when Vw_net.Mac.equal current mac ->
             t.stats.expirations <- t.stats.expirations + 1;
             Host.remove_neighbor t.host ip
         | Some _ | None -> ()))

let handle_frame t (frame : Vw_net.Eth.t) =
  match Arp_packet.of_bytes frame.payload with
  | Error e -> Log.debug (fun m -> m "%s: bad ARP: %s" (Host.name t.host) e)
  | Ok packet -> (
      match packet.op with
      | Arp_packet.Request ->
          if Vw_net.Ip_addr.equal packet.target_ip (Host.ip t.host) then begin
            t.stats.replies_sent <- t.stats.replies_sent + 1;
            send_arp t ~dst:packet.sender_mac ~op:Arp_packet.Reply
              ~target_mac:packet.sender_mac ~target_ip:packet.sender_ip
          end
      | Arp_packet.Reply ->
          let key = (packet.sender_ip :> int) in
          match Int_tbl.find_opt t.probes key with
          | Some probe ->
              (match probe.timer with
              | Some timer -> Host.cancel_timer t.host timer
              | None -> ());
              Int_tbl.remove t.probes key;
              t.stats.replies_received <- t.stats.replies_received + 1;
              install_binding t ~ip:packet.sender_ip ~mac:packet.sender_mac
          | None -> ())

let attach ?(config = default_config) host =
  let t =
    {
      host;
      config;
      stats =
        {
          requests_sent = 0;
          replies_sent = 0;
          replies_received = 0;
          resolutions = 0;
          failures = 0;
          expirations = 0;
        };
      probes = Int_tbl.create 8;
    }
  in
  Host.set_ethertype_handler host Arp_packet.ethertype (handle_frame t);
  Host.set_neighbor_miss_handler host (Some (on_miss t));
  t
