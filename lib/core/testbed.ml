type topology = Star | Shared_bus

type config = {
  seed : int;
  link : Vw_link.Link.config;
  topology : topology;
  rll : Vw_rll.Rll.config option;
  arp : Vw_stack.Arp.config option;
      (* Some: dynamic resolution instead of static neighbor tables *)
  trace_capacity : int;
}

let default_config =
  {
    seed = 42;
    link = Vw_link.Link.default_config;
    topology = Star;
    rll = None;
    arp = None;
    trace_capacity = 1_000_000;
  }

type node = {
  node_name : string;
  node_host : Vw_stack.Host.t;
  node_fie : Vw_engine.Fie.t;
  node_rll : Vw_rll.Rll.t option;
  node_arp : Vw_stack.Arp.t option;
  node_link : Vw_link.Link.t option;
  mutable node_tcp : Vw_tcp.Tcp.stack option;
}

type observability = {
  obs_metrics : Vw_obs.Metrics.t;
  obs_strings : Vw_obs.Strtab.t; (* run-shared node-name intern table *)
  obs_recorders : (string * Vw_obs.Recorder.t) list; (* node order *)
}

type t = {
  engine : Vw_sim.Engine.t;
  trace : Trace.t;
  all : node list;
  by_name : (string, node) Hashtbl.t;
  switch : Vw_link.Switch.t option;
  bus : Vw_link.Bus.t option;
  mutable obs : observability option;
}

let engine t = t.engine
let trace t = t.trace
let nodes t = t.all
let node t name = Hashtbl.find t.by_name name
let name n = n.node_name
let host n = n.node_host
let fie n = n.node_fie
let link n = n.node_link
let bus t = t.bus

let tcp n =
  match n.node_tcp with
  | Some stack -> stack
  | None ->
      let stack = Vw_tcp.Tcp.attach n.node_host in
      n.node_tcp <- Some stack;
      stack

let create ?(config = default_config) specs =
  let engine = Vw_sim.Engine.create ~seed:config.seed () in
  let trace = Trace.create ~capacity:config.trace_capacity () in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (n, _, _) ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Testbed.create: duplicate node %S" n);
      Hashtbl.replace seen n ())
    specs;
  let switch, bus, attach_host =
    match config.topology with
    | Star ->
        let sw = Vw_link.Switch.create engine in
        ( Some sw,
          None,
          fun host ->
            let l = Vw_link.Link.create engine config.link in
            Vw_stack.Host.attach host
              (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a l));
            ignore (Vw_link.Switch.attach sw (Vw_link.Link.endpoint_b l));
            Some l )
    | Shared_bus ->
        let bus = Vw_link.Bus.create engine config.link ~n:(List.length specs) in
        let next = ref 0 in
        ( None,
          Some bus,
          fun host ->
            let ep = Vw_link.Bus.endpoint bus !next in
            incr next;
            Vw_stack.Host.attach host (Vw_link.Netif.of_bus_endpoint ep);
            None )
  in
  let mk (node_name, mac, ip) =
    let node_host = Vw_stack.Host.create engine ~name:node_name ~mac ~ip in
    let node_link = attach_host node_host in
    let node_fie = Vw_engine.Fie.install node_host in
    let node_rll =
      Option.map (fun cfg -> Vw_rll.Rll.install ~config:cfg node_host) config.rll
    in
    let node_arp =
      Option.map (fun cfg -> Vw_stack.Arp.attach ~config:cfg node_host) config.arp
    in
    Vw_stack.Host.set_tap node_host (fun ~dir frame ->
        Trace.record trace
          ~time:(Vw_sim.Engine.now engine)
          ~node:node_name ~dir frame);
    { node_name; node_host; node_fie; node_rll; node_arp; node_link;
      node_tcp = None }
  in
  let all = List.map mk specs in
  (* static neighbor tables, unless ARP resolves dynamically *)
  if config.arp = None then
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a != b then
              Vw_stack.Host.add_neighbor a.node_host
                (Vw_stack.Host.ip b.node_host)
                (Vw_stack.Host.mac b.node_host))
          all)
      all;
  let by_name = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace by_name n.node_name n) all;
  { engine; trace; all; by_name; switch; bus; obs = None }

let of_node_table ?config (tables : Vw_fsl.Tables.t) =
  create ?config
    (Array.to_list tables.Vw_fsl.Tables.nodes
    |> List.map (fun (n : Vw_fsl.Tables.node_entry) -> (n.nname, n.nmac, n.nip)))

let run t ?until () = Vw_sim.Engine.run ?until t.engine

(* --- injected frames ---

   One frame at a time through the node's engine, applying each verdict
   where the installed hook's verdict would apply: an Accept continues
   through the rest of the chain, so DUP and REORDER reinjections
   interleave with the list as they would on the wire. *)

let process_batch t node point frames =
  let host = node.node_host in
  let rec go n = function
    | frame :: rest when not (Vw_stack.Host.is_failed host) ->
        (match Vw_engine.Fie.process_one node.node_fie point frame with
        | Vw_stack.Hook.Accept frame ->
            Vw_stack.Host.reinject host point
              ~from_priority:Vw_stack.Hook.priority_virtualwire frame
        | Vw_stack.Hook.Drop | Vw_stack.Hook.Stolen -> ());
        if Vw_sim.Engine.stop_requested t.engine then n + 1 else go (n + 1) rest
    | _ -> n
  in
  go 0 frames

(* --- observability --- *)

let enable_observability ?capacity t =
  match t.obs with
  | Some _ -> () (* idempotent; recorders survive Fie.reset *)
  | None ->
      let obs_metrics = Vw_obs.Metrics.create () in
      let obs_strings = Vw_obs.Strtab.create () in
      let seq = ref 0 in
      let clock () = Vw_sim.Engine.now t.engine in
      let obs_recorders =
        List.map
          (fun n ->
            let rec_ =
              Vw_obs.Recorder.create ?capacity ~strings:obs_strings
                ~node:n.node_name ~clock ~seq ()
            in
            Vw_engine.Fie.set_observability n.node_fie ~recorder:rec_
              ~metrics:obs_metrics;
            (n.node_name, rec_))
          t.all
      in
      t.obs <- Some { obs_metrics; obs_strings; obs_recorders }

let observability_enabled t = t.obs <> None

let recorder t name =
  Option.bind t.obs (fun o -> List.assoc_opt name o.obs_recorders)

let events t =
  match t.obs with
  | None -> []
  | Some o ->
      o.obs_recorders
      |> List.concat_map (fun (_, r) -> Vw_obs.Recorder.events r)
      |> List.sort (fun (a : Vw_obs.Event.t) b -> compare a.seq b.seq)

let events_recorded t =
  match t.obs with
  | None -> 0
  | Some o ->
      List.fold_left
        (fun acc (_, r) ->
          acc + Vw_obs.Recorder.length r + Vw_obs.Recorder.dropped r)
        0 o.obs_recorders

let events_dropped t =
  match t.obs with
  | None -> 0
  | Some o ->
      List.fold_left
        (fun acc (_, r) -> acc + Vw_obs.Recorder.dropped r)
        0 o.obs_recorders

let events_binary t ~scenario =
  match t.obs with
  | None -> None
  | Some o ->
      let records =
        List.fold_left
          (fun acc (_, r) -> acc + Vw_obs.Recorder.length r)
          0 o.obs_recorders
      in
      let buf =
        Buffer.create (256 + (records * Vw_obs.Binlog.slot_bytes))
      in
      Vw_obs.Binlog.add_header buf ~scenario ~recorded:(events_recorded t)
        ~dropped:(events_dropped t)
        ~strings:(Vw_obs.Strtab.to_list o.obs_strings)
        ~records;
      List.iter
        (fun (_, r) -> Vw_obs.Recorder.append_binary buf r)
        o.obs_recorders;
      Some (Buffer.contents buf)

let events_truncated t =
  match t.obs with
  | None -> 0
  | Some o ->
      List.fold_left
        (fun acc (_, r) -> acc + if Vw_obs.Recorder.truncated r then 1 else 0)
        0 o.obs_recorders

let metrics t =
  match t.obs with
  | None -> None
  | Some o ->
      (* export every engine's stats into the registry: per-node gauges
         plus the cross-node totals. [Metrics.set] makes this idempotent,
         so callers may export after each of several runs. *)
      let mx = o.obs_metrics in
      let totals = Hashtbl.create 32 in
      List.iter
        (fun n ->
          let fields =
            Vw_engine.Fie.stats_fields (Vw_engine.Fie.stats n.node_fie)
          in
          List.iter
            (fun (field, v) ->
              Vw_obs.Metrics.set
                (Vw_obs.Metrics.counter mx
                   (Printf.sprintf "node.%s.%s" n.node_name field))
                v;
              Hashtbl.replace totals field
                (v
                + Option.value ~default:0 (Hashtbl.find_opt totals field)))
            fields)
        t.all;
      (* aggregate in stats-field order, taken from any one node *)
      (match t.all with
      | [] -> ()
      | n0 :: _ ->
          List.iter
            (fun (field, _) ->
              Vw_obs.Metrics.set
                (Vw_obs.Metrics.counter mx ("engine." ^ field))
                (Option.value ~default:0 (Hashtbl.find_opt totals field)))
            (Vw_engine.Fie.stats_fields (Vw_engine.Fie.stats n0.node_fie)));
      Vw_obs.Metrics.set
        (Vw_obs.Metrics.counter mx "obs.events_recorded")
        (events_recorded t);
      Vw_obs.Metrics.set
        (Vw_obs.Metrics.counter mx "obs.events_dropped")
        (events_dropped t);
      Vw_obs.Metrics.set
        (Vw_obs.Metrics.counter mx "obs.events_truncated")
        (events_truncated t);
      Some mx
