module Ev = Vw_obs.Event
module T = Vw_fsl.Tables

type span = {
  root : Ev.t;
  steps : Ev.t list;
  t_start : Vw_sim.Simtime.t;
  t_end : Vw_sim.Simtime.t;
}

let spans events =
  let events =
    List.sort (fun (a : Ev.t) b -> compare a.seq b.seq) events
  in
  let groups : (int, Ev.t list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (e : Ev.t) ->
      match Hashtbl.find_opt groups e.cause with
      | Some g -> Hashtbl.replace groups e.cause (e :: g)
      | None ->
          Hashtbl.replace groups e.cause [ e ];
          order := e.cause :: !order)
    events;
  List.rev_map
    (fun cause ->
      let group = List.rev (Hashtbl.find groups cause) in
      (* the root is the event whose seq IS the cause; when the ring
         overwrote it, the earliest survivor stands in *)
      let root, steps =
        match List.partition (fun (e : Ev.t) -> e.seq = cause) group with
        | [ r ], rest -> (r, rest)
        | _, _ -> (List.hd group, List.tl group)
      in
      let t_end =
        List.fold_left (fun acc (e : Ev.t) -> max acc e.time) root.time steps
      in
      { root; steps; t_start = root.time; t_end })
    !order

type flow = { sent_seq : int; recv_seq : int }

let flows events =
  List.map
    (fun ((sent : Ev.t), (recv : Ev.t)) ->
      { sent_seq = sent.seq; recv_seq = recv.seq })
    (Vw_core.Explain.control_pairs events)

(* --- Chrome trace-event JSON --- *)

let span_name tables (root : Ev.t) =
  match root.body with
  | Ev.Packet_classified { point; fid } ->
      Printf.sprintf "packet %s (%s)" (T.filter_name tables fid)
        (Ev.point_name point)
  | Ev.Control_received { ctl } -> Printf.sprintf "ctl %s" (Ev.ctl_name ctl)
  | b -> Ev.kind_name b

(* trace-event timestamps are microseconds; keep nanosecond precision as a
   fractional part *)
let us_of time = float_of_int time /. 1000.0

let to_chrome_json tables events =
  let all_spans = spans events in
  let all_flows = Vw_core.Explain.control_pairs events in
  (* processes: the script's nodes in table order, then any stragglers in
     order of appearance (a log can mention nodes the tables do not) *)
  let pids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let pid_names = ref [] in
  let pid_of node =
    match Hashtbl.find_opt pids node with
    | Some p -> p
    | None ->
        let p = Hashtbl.length pids + 1 in
        Hashtbl.replace pids node p;
        pid_names := (p, node) :: !pid_names;
        p
  in
  Array.iter (fun (n : T.node_entry) -> ignore (pid_of n.T.nname)) tables.T.nodes;
  List.iter (fun s -> ignore (pid_of s.root.Ev.node)) all_spans;
  (* lane allocation: per node, a span takes the first lane that freed up
     strictly before it starts, so simultaneous cascades render side by
     side instead of nesting ambiguously *)
  let lanes : (int, Vw_sim.Simtime.t array ref) Hashtbl.t = Hashtbl.create 8 in
  let lane_of : (int, int) Hashtbl.t = Hashtbl.create 64 (* root seq -> tid *) in
  let assign_lane span =
    let pid = pid_of span.root.Ev.node in
    let ends =
      match Hashtbl.find_opt lanes pid with
      | Some r -> r
      | None ->
          let r = ref [||] in
          Hashtbl.replace lanes pid r;
          r
    in
    let n = Array.length !ends in
    let rec free i = if i = n || !ends.(i) < span.t_start then i else free (i + 1) in
    let lane = free 0 in
    if lane = n then ends := Array.append !ends [| span.t_end |]
    else !ends.(lane) <- span.t_end;
    Hashtbl.replace lane_of span.root.Ev.seq lane;
    lane
  in
  let b = Buffer.create 4096 in
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b (if !first then "\n    " else ",\n    ");
        first := false;
        Buffer.add_string b s)
      fmt
  in
  Buffer.add_string b "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  List.iter
    (fun (pid, node) ->
      emit
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 0, \
         \"args\": {\"name\": \"%s\"}}"
        pid (Json.escape node))
    (List.sort compare (List.rev !pid_names));
  List.iter
    (fun span ->
      let pid = pid_of span.root.Ev.node in
      let lane = assign_lane span in
      let dur = max 1 (span.t_end - span.t_start) in
      emit
        "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
         \"pid\": %d, \"tid\": %d, \"args\": {\"node\": \"%s\", \"nid\": %d, \
         \"cause\": %d, \"events\": %d}}"
        (Json.escape (span_name tables span.root))
        (us_of span.t_start) (us_of dur) pid lane
        (Json.escape span.root.Ev.node)
        span.root.Ev.nid span.root.Ev.seq
        (1 + List.length span.steps);
      List.iter
        (fun (e : Ev.t) ->
          match e.body with
          | Ev.Fault_applied { fault; aid; _ } ->
              emit
                "{\"name\": \"fault %s\", \"ph\": \"i\", \"s\": \"t\", \"ts\": \
                 %.3f, \"pid\": %d, \"tid\": %d, \"args\": {\"aid\": %d, \
                 \"cause\": %d}}"
                (Ev.fault_name fault) (us_of e.time) pid lane aid e.cause
          | Ev.Report_raised { rule; _ } ->
              emit
                "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \
                 \"pid\": %d, \"tid\": %d, \"args\": {\"cause\": %d}}"
                (match rule with
                | Some r -> Printf.sprintf "FLAG_ERROR rule %d" r
                | None -> "STOP")
                (us_of e.time) pid lane e.cause
          | _ -> ())
        span.steps)
    all_spans;
  (* flow arrows: out of the sending span at the Control_sent, into the
     receiving span at its root *)
  List.iteri
    (fun i ((sent : Ev.t), (recv : Ev.t)) ->
      let name =
        match sent.Ev.body with
        | Ev.Control_sent { ctl; _ } -> "ctl " ^ Ev.ctl_name ctl
        | _ -> "ctl"
      in
      let sent_lane =
        Option.value ~default:0 (Hashtbl.find_opt lane_of sent.Ev.cause)
      in
      let recv_lane =
        Option.value ~default:0 (Hashtbl.find_opt lane_of recv.Ev.cause)
      in
      emit
        "{\"name\": \"%s\", \"cat\": \"control\", \"ph\": \"s\", \"id\": %d, \
         \"ts\": %.3f, \"pid\": %d, \"tid\": %d}"
        (Json.escape name) i (us_of sent.Ev.time) (pid_of sent.Ev.node)
        sent_lane;
      emit
        "{\"name\": \"%s\", \"cat\": \"control\", \"ph\": \"f\", \"bp\": \
         \"e\", \"id\": %d, \"ts\": %.3f, \"pid\": %d, \"tid\": %d}"
        (Json.escape name) i (us_of recv.Ev.time) (pid_of recv.Ev.node)
        recv_lane)
    all_flows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
