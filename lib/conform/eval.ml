module Ev = Vw_obs.Event
module T = Vw_fsl.Tables
module Ir = Vw_fsl.Conform_ir
module St = Vw_sim.Simtime

type verdict =
  | Pass of { at : St.t }
  | Tolerance_miss of { actual : St.t; diagnosis : string }
  | Missed of { diagnosis : string }

type checked = { x : Ir.expectation; verdict : verdict }

let ok = function Pass _ -> true | Tolerance_miss _ | Missed _ -> false

let status_name = function
  | Pass _ -> "pass"
  | Tolerance_miss _ -> "tolerance_miss"
  | Missed _ -> "missed"

let diagnosis = function
  | Pass _ -> ""
  | Tolerance_miss { diagnosis; _ } | Missed { diagnosis } -> diagnosis

let point_name = function Ev.Ingress -> "ingress" | Ev.Egress -> "egress"
(* Eta-expanded: [Format.asprintf "%a" St.pp] alone would build one buffer
   at module initialisation and share it between the worker domains of a
   parallel [conform], which then garble each other's diagnoses. *)
let pp_time t = Format.asprintf "%a" St.pp t

(* One observed classification of an expectation's filter, with the faults
   of its causal context folded in: [cl_dropped] when a DROP was applied to
   this very packet, [cl_delay] the summed scripted DELAYs (the engine
   re-injects delayed frames past the classifier, so the classification
   time alone would hide them). *)
type classification = {
  cl_ev : Ev.t;
  cl_dropped : int option;  (** rule index of the DROP *)
  cl_delay : St.t;
}

(* The faults of every causal context, keyed by the cause's seq: the rule
   of its first DROP, and its summed scripted DELAYs. Built once per run;
   every packet expectation reads them. *)
type faults = { drops : (int, int) Hashtbl.t; delays : (int, St.t) Hashtbl.t }

let faults (tables : T.t) events =
  let drops = Hashtbl.create 16 and delays = Hashtbl.create 16 in
  List.iter
    (fun (e : Ev.t) ->
      match e.Ev.body with
      | Ev.Fault_applied { did; fault = Ev.Drop; _ } ->
          let rule =
            if did >= 0 && did < Array.length tables.T.rule_of_cond then
              tables.T.rule_of_cond.(did)
            else -1
          in
          if not (Hashtbl.mem drops e.Ev.cause) then
            Hashtbl.add drops e.Ev.cause rule
      | Ev.Fault_applied { aid; fault = Ev.Delay; _ } ->
          let d =
            if aid >= 0 && aid < Array.length tables.T.actions then
              match tables.T.actions.(aid).T.act with
              | T.A_delay (_, d) -> d
              | _ -> St.zero
            else St.zero
          in
          let prev =
            Option.value ~default:St.zero (Hashtbl.find_opt delays e.Ev.cause)
          in
          Hashtbl.replace delays e.Ev.cause St.(prev + d)
      | _ -> ())
    events;
  { drops; delays }

let classifications faults events ~fid =
  List.filter_map
    (fun (e : Ev.t) ->
      match e.Ev.body with
      | Ev.Packet_classified { fid = f; _ } when f = fid ->
          Some
            {
              cl_ev = e;
              cl_dropped = Hashtbl.find_opt faults.drops e.Ev.seq;
              cl_delay =
                Option.value ~default:St.zero
                  (Hashtbl.find_opt faults.delays e.Ev.seq);
            }
      | _ -> None)
    events

let in_window window t =
  match window with
  | None -> true
  | Some { Ir.w_lo; w_hi } -> t >= w_lo && (w_hi = max_int || t <= w_hi)

let window_text = function
  | None -> "any time"
  | Some { Ir.w_lo; w_hi } ->
      if w_hi = max_int then Printf.sprintf "[%s, ...]" (pp_time w_lo)
      else Printf.sprintf "[%s, %s]" (pp_time w_lo) (pp_time w_hi)

let eval_packet tables ~anchor ~events ~faults ~window ~fid ~from_nid ~to_nid
    ~dir =
  let obs_nid, obs_point =
    match dir with
    | Vw_fsl.Ast.Send -> (from_nid, Ev.Egress)
    | Vw_fsl.Ast.Recv -> (to_nid, Ev.Ingress)
  in
  let fname = T.filter_name tables fid in
  let obs_name =
    Printf.sprintf "%s (%s)" (T.node_name tables obs_nid) (point_name obs_point)
  in
  let all = classifications faults events ~fid in
  let here =
    List.filter
      (fun c ->
        c.cl_ev.Ev.nid = obs_nid
        &&
        match c.cl_ev.Ev.body with
        | Ev.Packet_classified { point; _ } -> point = obs_point
        | _ -> false)
      all
  in
  let delivered =
    List.filter_map
      (fun c ->
        match c.cl_dropped with
        | Some _ -> None
        | None -> Some (c, St.(c.cl_ev.Ev.time + c.cl_delay - anchor)))
      here
  in
  let hits = List.filter (fun (_, rel) -> in_window window rel) delivered in
  match hits with
  | (_, rel) :: _ -> Pass { at = rel }
  | [] -> (
      match delivered with
      | (c, rel) :: _ ->
          let delayed =
            if c.cl_delay > St.zero then
              Printf.sprintf " (including a %s scripted DELAY)"
                (pp_time c.cl_delay)
            else ""
          in
          Tolerance_miss
            {
              actual = rel;
              diagnosis =
                Printf.sprintf
                  "packet %s delivered at %s%s, outside window %s" fname
                  (pp_time rel) delayed (window_text window);
            }
      | [] -> (
          match
            List.find_opt (fun c -> c.cl_dropped <> None) here
          with
          | Some c ->
              let rule = Option.value ~default:(-1) c.cl_dropped in
              Missed
                {
                  diagnosis =
                    Printf.sprintf
                      "furthest stage: dropped — packet %s reached %s at %s \
                       but a DROP fault (rule %d) discarded it"
                      fname obs_name
                      (pp_time St.(c.cl_ev.Ev.time - anchor))
                      rule;
                }
          | None -> (
              match all with
              | c :: _ ->
                  let where =
                    match c.cl_ev.Ev.body with
                    | Ev.Packet_classified { point; _ } ->
                        Printf.sprintf "%s (%s)"
                          (T.node_name tables c.cl_ev.Ev.nid)
                          (point_name point)
                    | _ -> c.cl_ev.Ev.node
                  in
                  let fate =
                    match c.cl_dropped with
                    | Some rule ->
                        Printf.sprintf
                          " and was DROPped there by a fault of rule %d" rule
                    | None -> ""
                  in
                  Missed
                    {
                      diagnosis =
                        Printf.sprintf
                          "furthest stage: filter match — packet %s matched \
                           at %s at %s%s, but was never observed at %s"
                          fname where
                          (pp_time St.(c.cl_ev.Ev.time - anchor))
                          fate obs_name;
                    }
              | [] ->
                  Missed
                    {
                      diagnosis =
                        Printf.sprintf
                          "furthest stage: none — no packet ever matched \
                           filter %s (never generated)"
                          fname;
                    })))

let eval_state tables ~anchor ~events ~window ~cid ~op ~value =
  let owner =
    if cid >= 0 && cid < Array.length tables.T.counters then
      tables.T.counters.(cid).T.owner
    else -1
  in
  let cname = T.counter_name tables cid in
  let pred v =
    match op with
    | Vw_fsl.Ast.Lt -> v < value
    | Vw_fsl.Ast.Le -> v <= value
    | Vw_fsl.Ast.Gt -> v > value
    | Vw_fsl.Ast.Ge -> v >= value
    | Vw_fsl.Ast.Eq -> v = value
    | Vw_fsl.Ast.Ne -> v <> value
  in
  (* the owner's authoritative value timeline, as (relative time, value) *)
  let timeline =
    List.filter_map
      (fun (e : Ev.t) ->
        match e.Ev.body with
        | Ev.Counter_changed { cid = c; value = v; _ }
          when c = cid && e.Ev.nid = owner ->
            Some (St.(e.Ev.time - anchor), v)
        | _ -> None)
      events
  in
  (* sample points where the predicate could start to hold: the initial 0,
     the window's opening edge, and every change *)
  let value_at rel =
    List.fold_left (fun acc (t, v) -> if t <= rel then v else acc) 0 timeline
  in
  let hold_times =
    let changes = List.filter (fun (_, v) -> pred v) timeline in
    let initial =
      match window with
      | None -> if pred 0 then [ (St.zero, 0) ] else []
      | Some { Ir.w_lo; _ } ->
          if pred (value_at w_lo) then [ (w_lo, value_at w_lo) ] else []
    in
    initial @ changes
  in
  let hits = List.filter (fun (t, _) -> in_window window t) hold_times in
  match hits with
  | (t, _) :: _ -> Pass { at = t }
  | [] -> (
      match hold_times with
      | (t, v) :: _ ->
          Tolerance_miss
            {
              actual = t;
              diagnosis =
                Printf.sprintf
                  "counter %s reached %d at %s, outside window %s" cname v
                  (pp_time t) (window_text window);
            }
      | [] -> (
          match List.rev timeline with
          | (t, v) :: _ ->
              Missed
                {
                  diagnosis =
                    Printf.sprintf
                      "furthest stage: counter change — %s last moved to %d \
                       at %s, but the predicate never held"
                      cname v (pp_time t);
                }
          | [] ->
              Missed
                {
                  diagnosis =
                    Printf.sprintf
                      "furthest stage: none — counter %s never changed \
                       (stayed 0)"
                      cname;
                }))

let rec ascending = function
  | (a : Ev.t) :: (b :: _ as rest) -> a.Ev.seq <= b.Ev.seq && ascending rest
  | _ -> true

let run tables ~ir ~anchor ~events =
  (* the driver hands over an already merged stream: sort only input that
     is out of order (a stable sort leaves ordered input as it is) *)
  let events =
    if ascending events then events
    else List.sort (fun (a : Ev.t) b -> compare a.Ev.seq b.Ev.seq) events
  in
  let faults = faults tables events in
  List.map
    (fun (x : Ir.expectation) ->
      let verdict =
        match x.Ir.x_kind with
        | Ir.X_packet { xp_fid; xp_from; xp_to; xp_dir } ->
            eval_packet tables ~anchor ~events ~faults ~window:x.Ir.x_window
              ~fid:xp_fid ~from_nid:xp_from ~to_nid:xp_to ~dir:xp_dir
        | Ir.X_state { xs_cid; xs_op; xs_value } ->
            eval_state tables ~anchor ~events ~window:x.Ir.x_window ~cid:xs_cid
              ~op:xs_op ~value:xs_value
      in
      { x; verdict })
    ir.Ir.expects
