let src = Logs.Src.create "vw.host" ~doc:"VirtualWire host stack"

module Log = (val Logs.src_log src : Logs.LOG)
module Int_tbl = Vw_util.Int_tbl

type hook_entry = {
  id : int;
  priority : int;
  hook_name : string;
  handler : Hook.handler;
}

type hook_id = int
type timer = { mutable cancelled : bool }

type t = {
  engine : Vw_sim.Engine.t;
  name : string;
  mac : Vw_net.Mac.t;
  ip : Vw_net.Ip_addr.t;
  mutable nic : Vw_link.Netif.t option;
  (* each chain in the order a frame walks it: egress ascending by
     (priority, id), ingress descending *)
  mutable egress : hook_entry list;
  mutable ingress : hook_entry list;
  mutable next_hook_id : int;
  (* every table a frame looks up is int-keyed; addresses key as
     [(ip :> int)] *)
  ethertype_handlers : (Vw_net.Eth.t -> unit) Int_tbl.t;
  ip_handlers :
    (src:Vw_net.Ip_addr.t ->
    dst:Vw_net.Ip_addr.t ->
    bytes ->
    pos:int ->
    len:int ->
    unit)
    Int_tbl.t;
  udp_ports : (src:Vw_net.Ip_addr.t -> src_port:int -> bytes -> unit) Int_tbl.t;
  neighbors : Vw_net.Mac.t Int_tbl.t;
  pending_resolution : bytes Queue.t Int_tbl.t;
  mutable neighbor_miss : (Vw_net.Ip_addr.t -> unit) option;
  mutable icmp_observer : (src:Vw_net.Ip_addr.t -> Vw_net.Icmp.t -> unit) option;
  mutable tap : (dir:[ `In | `Out ] -> Vw_net.Eth.t -> unit) option;
  mutable failed : bool;
  mutable ip_ident : int;
  mutable frames_received : int;
}

let engine t = t.engine
let name t = t.name
let mac t = t.mac
let ip t = t.ip
let frames_received t = t.frames_received

let by_chain_order a b = compare (a.priority, a.id) (b.priority, b.id)

let add_hook t point ~priority ~name handler =
  let id = t.next_hook_id in
  t.next_hook_id <- id + 1;
  let entry = { id; priority; hook_name = name; handler } in
  (match point with
  | Hook.Egress -> t.egress <- List.sort by_chain_order (entry :: t.egress)
  | Hook.Ingress ->
      t.ingress <-
        List.sort (fun a b -> by_chain_order b a) (entry :: t.ingress));
  id

let remove_hook t id =
  let keep h = h.id <> id in
  t.egress <- List.filter keep t.egress;
  t.ingress <- List.filter keep t.ingress

let transmit t (frame : Vw_net.Eth.t) =
  if not t.failed then begin
    (match t.tap with Some tap -> tap ~dir:`Out frame | None -> ());
    match t.nic with
    | Some nic -> nic.Vw_link.Netif.send frame
    | None -> Log.warn (fun m -> m "%s: transmit with no NIC attached" t.name)
  end

let demux t (frame : Vw_net.Eth.t) =
  match Int_tbl.find t.ethertype_handlers frame.ethertype with
  | handler -> handler frame
  | exception Not_found ->
      Log.debug (fun m ->
          m "%s: no handler for ethertype 0x%04x" t.name frame.ethertype)

(* Runs [frame] through [hooks], the rest of [point]'s chain in chain
   order; a surviving frame goes to the NIC (egress) or the demultiplexer
   (ingress). The list is the chain as it stood when the walk began. *)
let rec run_chain t point hooks frame =
  match hooks with
  | [] -> (
      match point with
      | Hook.Egress -> transmit t frame
      | Hook.Ingress -> demux t frame)
  | h :: rest -> (
      match h.handler frame with
      | Hook.Accept frame' -> run_chain t point rest frame'
      | Hook.Drop | Hook.Stolen -> ())

let send_frame t frame =
  if not t.failed then run_chain t Hook.Egress t.egress frame

(* The hooks strictly beyond [p] in chain order: the leading ones at or
   before it dropped. *)
let rec beyond point p = function
  | h :: rest
    when match point with
         | Hook.Egress -> h.priority <= p
         | Hook.Ingress -> h.priority >= p ->
      beyond point p rest
  | hooks -> hooks

let reinject t point ~from_priority frame =
  if not t.failed then
    let chain =
      match point with Hook.Egress -> t.egress | Hook.Ingress -> t.ingress
    in
    run_chain t point (beyond point from_priority chain) frame

let receive t (frame : Vw_net.Eth.t) =
  (* NICs filter on destination MAC unless it is ours or broadcast. *)
  if
    (not t.failed)
    && (Vw_net.Mac.equal frame.dst t.mac || Vw_net.Mac.is_broadcast frame.dst)
  then begin
    (match t.tap with Some tap -> tap ~dir:`In frame | None -> ());
    t.frames_received <- t.frames_received + 1;
    run_chain t Hook.Ingress t.ingress frame
  end

let attach t nic =
  t.nic <- Some nic;
  nic.Vw_link.Netif.set_receive (receive t)

let set_ethertype_handler t ethertype handler =
  Int_tbl.replace t.ethertype_handlers ethertype handler

let set_tap t tap = t.tap <- Some tap

(* --- IPv4 --- *)

let max_pending_per_neighbor = 16

let emit_ip t ~dst_mac packet_bytes =
  let frame =
    Vw_net.Eth.make ~dst:dst_mac ~src:t.mac
      ~ethertype:Vw_net.Eth.ethertype_ipv4 packet_bytes
  in
  send_frame t frame

let add_neighbor t (ip : Vw_net.Ip_addr.t) mac =
  Int_tbl.replace t.neighbors (ip :> int) mac;
  (* release any packets parked on this resolution *)
  match Int_tbl.find_opt t.pending_resolution (ip :> int) with
  | None -> ()
  | Some q ->
      Int_tbl.remove t.pending_resolution (ip :> int);
      Queue.iter (fun packet_bytes -> emit_ip t ~dst_mac:mac packet_bytes) q

let remove_neighbor t (ip : Vw_net.Ip_addr.t) =
  Int_tbl.remove t.neighbors (ip :> int)

let neighbor t (ip : Vw_net.Ip_addr.t) = Int_tbl.find_opt t.neighbors (ip :> int)
let set_neighbor_miss_handler t handler = t.neighbor_miss <- handler

let drop_pending t (ip : Vw_net.Ip_addr.t) =
  match Int_tbl.find_opt t.pending_resolution (ip :> int) with
  | None -> 0
  | Some q ->
      Int_tbl.remove t.pending_resolution (ip :> int);
      Queue.length q

(* Writes the IPv4 header into the first 20 bytes of [packet], whose
   transport bytes are already in place, and sends it on. *)
let output_ip t ~protocol ~(dst : Vw_net.Ip_addr.t) packet =
  t.ip_ident <- (t.ip_ident + 1) land 0xffff;
  Vw_net.Ipv4.write_header packet ~pos:0 ~tos:0 ~ttl:64 ~ident:t.ip_ident
    ~protocol ~src:t.ip ~dst ~len:(Bytes.length packet);
  match Int_tbl.find t.neighbors (dst :> int) with
  | mac -> emit_ip t ~dst_mac:mac packet
  | exception Not_found -> (
      match t.neighbor_miss with
      | None ->
          (* no resolver: fall back to broadcast, the static-testbed
             behaviour (the NIC filter at the destination still applies) *)
          emit_ip t ~dst_mac:Vw_net.Mac.broadcast packet
      | Some miss ->
          let q =
            match Int_tbl.find_opt t.pending_resolution (dst :> int) with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Int_tbl.replace t.pending_resolution (dst :> int) q;
                q
          in
          if Queue.length q < max_pending_per_neighbor then Queue.add packet q;
          miss dst)

let send_ip t ~protocol ~dst payload =
  let n = Bytes.length payload in
  let packet = Bytes.create (Vw_net.Ipv4.header_size + n) in
  Bytes.blit payload 0 packet Vw_net.Ipv4.header_size n;
  output_ip t ~protocol ~dst packet

let set_ip_protocol_handler t protocol handler =
  Int_tbl.replace t.ip_handlers protocol handler

(* One path for every protocol: the header is checked where it lies, and
   the handler gets the transport bytes as a view into the frame. *)
let handle_ip t (frame : Vw_net.Eth.t) =
  let b = frame.payload in
  match Vw_net.Ipv4.read b ~pos:0 ~len:(Bytes.length b) with
  | Error e -> Log.debug (fun m -> m "%s: dropped IP packet: %s" t.name e)
  | Ok total ->
      if Vw_net.Ipv4.dst_is b ~pos:0 t.ip then
        let protocol = Vw_net.Ipv4.protocol_at b ~pos:0 in
        match Int_tbl.find t.ip_handlers protocol with
        | handler ->
            handler
              ~src:(Vw_net.Ipv4.src_at b ~pos:0)
              ~dst:t.ip b ~pos:Vw_net.Ipv4.header_size
              ~len:(total - Vw_net.Ipv4.header_size)
        | exception Not_found ->
            Log.debug (fun m ->
                m "%s: no handler for IP protocol %d" t.name protocol)

(* --- ICMP --- *)

let send_icmp t ~dst message =
  send_ip t ~protocol:Vw_net.Icmp.protocol ~dst (Vw_net.Icmp.to_bytes message)

let set_icmp_observer t observer = t.icmp_observer <- observer

let handle_icmp t ~src ~dst:_ b ~pos ~len =
  match Vw_net.Icmp.of_bytes (Bytes.sub b pos len) with
  | Error e -> Log.debug (fun m -> m "%s: dropped ICMP: %s" t.name e)
  | Ok (Vw_net.Icmp.Echo_request { id; seq; payload }) ->
      send_icmp t ~dst:src (Vw_net.Icmp.Echo_reply { id; seq; payload })
  | Ok message -> (
      match t.icmp_observer with
      | Some observer -> observer ~src message
      | None -> ())

(* --- UDP --- *)

let handle_udp t ~src ~dst b ~pos ~len =
  match Vw_net.Udp.read ~src ~dst b ~pos ~len with
  | Error e -> Log.debug (fun m -> m "%s: dropped UDP datagram: %s" t.name e)
  | Ok dgram -> (
      match Int_tbl.find t.udp_ports dgram.dst_port with
      | handler -> handler ~src ~src_port:dgram.src_port dgram.payload
      | exception Not_found ->
          (* port unreachable: quote the offending IP header + 8 payload
             bytes (the UDP header) back, per RFC 792 *)
          let original =
            Bytes.sub b (pos - Vw_net.Ipv4.header_size)
              (Vw_net.Ipv4.header_size + Vw_net.Udp.header_size)
          in
          send_icmp t ~dst:src
            (Vw_net.Icmp.Dest_unreachable
               { code = Vw_net.Icmp.code_port_unreachable; original }))

let udp_bind t ~port handler =
  if Int_tbl.mem t.udp_ports port then
    invalid_arg (Printf.sprintf "Host.udp_bind: port %d already bound" port);
  Int_tbl.replace t.udp_ports port handler

let udp_unbind t ~port = Int_tbl.remove t.udp_ports port

(* One buffer for the datagram: the payload is copied once, and both
   headers are written in front of it. *)
let udp_send t ~src_port ~dst ~dst_port payload =
  let n = Bytes.length payload in
  let pos = Vw_net.Ipv4.header_size in
  let packet = Bytes.create (pos + Vw_net.Udp.header_size + n) in
  Bytes.blit payload 0 packet (pos + Vw_net.Udp.header_size) n;
  Vw_net.Udp.write_header packet ~pos ~src:t.ip ~dst ~src_port ~dst_port
    ~len:(Vw_net.Udp.header_size + n);
  output_ip t ~protocol:Vw_net.Ipv4.protocol_udp ~dst packet

(* --- Timers --- *)

let set_timer t ?(granularity = `Jiffy) ~delay fn =
  let timer = { cancelled = false } in
  let now = Vw_sim.Engine.now t.engine in
  let expiry = Vw_sim.Simtime.(now + max 0 delay) in
  let expiry =
    match granularity with
    | `Fine -> expiry
    | `Jiffy ->
        (* Round up to the next jiffy boundary, as Linux 2.4 add_timer does. *)
        let j = Vw_sim.Simtime.jiffy in
        (expiry + j - 1) / j * j
  in
  Vw_sim.Engine.schedule_at t.engine ~time:expiry (fun () ->
      if (not timer.cancelled) && not t.failed then fn ());
  timer

let cancel_timer _t timer = timer.cancelled <- true

(* --- Failure --- *)

let fail t =
  Log.info (fun m -> m "%s: node FAILED" t.name);
  t.failed <- true

let revive t = t.failed <- false
let is_failed t = t.failed

let create engine ~name ~mac ~ip =
  let t =
    {
      engine;
      name;
      mac;
      ip;
      nic = None;
      egress = [];
      ingress = [];
      next_hook_id = 0;
      ethertype_handlers = Int_tbl.create 8;
      ip_handlers = Int_tbl.create 8;
      udp_ports = Int_tbl.create 8;
      neighbors = Int_tbl.create 8;
      pending_resolution = Int_tbl.create 8;
      neighbor_miss = None;
      icmp_observer = None;
      tap = None;
      failed = false;
      ip_ident = 0;
      frames_received = 0;
    }
  in
  set_ethertype_handler t Vw_net.Eth.ethertype_ipv4 (handle_ip t);
  (* closures over [t] that call the handlers directly: a partial
     application such as [handle_udp t] of a 6-argument function holds
     one word more *)
  set_ip_protocol_handler t Vw_net.Ipv4.protocol_udp
    (fun ~src ~dst b ~pos ~len -> handle_udp t ~src ~dst b ~pos ~len);
  set_ip_protocol_handler t Vw_net.Icmp.protocol
    (fun ~src ~dst b ~pos ~len -> handle_icmp t ~src ~dst b ~pos ~len);
  t
