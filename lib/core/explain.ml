module Ev = Vw_obs.Event
module T = Vw_fsl.Tables

type t = {
  tables : T.t;
  events : Ev.t array; (* ascending seq *)
  by_seq : (int, Ev.t) Hashtbl.t;
}

let analyze tables events =
  let arr = Array.of_list events in
  Array.sort (fun (a : Ev.t) b -> compare a.seq b.seq) arr;
  let by_seq = Hashtbl.create (Array.length arr) in
  Array.iter (fun (e : Ev.t) -> Hashtbl.replace by_seq e.seq e) arr;
  { tables; events = arr; by_seq }

let num_rules (tables : T.t) =
  Array.fold_left (fun acc r -> max acc (r + 1)) 0 tables.T.rule_of_cond

type rule_deps = {
  rule : int;
  dids : int list;
  tids : int list;
  cids : int list;
  fids : int list;
}

let rec terms_of_expr = function
  | T.C_true -> []
  | T.C_term tid -> [ tid ]
  | T.C_and (a, b) | T.C_or (a, b) -> terms_of_expr a @ terms_of_expr b
  | T.C_not e -> terms_of_expr e

let rule_deps (tables : T.t) ~rule =
  if rule < 0 || rule >= num_rules tables then
    invalid_arg (Printf.sprintf "Explain.rule_deps: no rule %d" rule);
  let dids =
    Array.to_list tables.T.conds
    |> List.filter_map (fun (c : T.cond_entry) ->
           if tables.T.rule_of_cond.(c.did) = rule then Some c.did else None)
  in
  let tids =
    List.concat_map (fun did -> terms_of_expr tables.T.conds.(did).T.expr) dids
    |> List.sort_uniq compare
  in
  let cids =
    List.concat_map
      (fun tid ->
        let te = tables.T.terms.(tid) in
        te.T.left :: (match te.T.right with T.Cnt c -> [ c ] | T.Num _ -> []))
      tids
    |> List.sort_uniq compare
  in
  let fids =
    List.filter_map
      (fun cid ->
        match tables.T.counters.(cid).T.ckind with
        | T.Event { e_fid; _ } -> Some e_fid
        | T.Local -> None)
      cids
    |> List.sort_uniq compare
  in
  { rule; dids; tids; cids; fids }

type segment = Ev.t list

type verdict =
  | Fired of { rise : Ev.t; chain : segment list }
  | Not_fired of stage

and stage =
  | Saw_nothing
  | Saw_packet of Ev.t
  | Saw_counter of Ev.t
  | Saw_term of Ev.t

let relevant deps (e : Ev.t) =
  match e.body with
  | Ev.Counter_changed { cid; _ } -> List.mem cid deps.cids
  | Ev.Term_flipped { tid; _ } -> List.mem tid deps.tids
  | Ev.Condition_rose { did }
  | Ev.Action_fired { did; _ }
  | Ev.Fault_applied { did; _ } ->
      List.mem did deps.dids
  | Ev.Control_sent { ctl; _ } | Ev.Control_received { ctl } -> (
      (* control traffic matters when it carries a counter or term of the
         cone — INIT/START/report frames are not part of a rule's data
         flow *)
      match ctl with
      | Ev.C_counter_update { cid; _ } -> List.mem cid deps.cids
      | Ev.C_term_status { tid; _ } -> List.mem tid deps.tids
      | _ -> false)
  | Ev.Packet_classified { fid; _ } -> List.mem fid deps.fids
  | Ev.Report_raised _ | Ev.Expect_checked _ -> false

(* events of [root]'s causal context up to [target], relevant ones only *)
let segment t deps ~(root : Ev.t) ~(target : Ev.t) =
  let rel = ref [] in
  Array.iter
    (fun (e : Ev.t) ->
      if
        e.seq > root.seq && e.seq <= target.seq && e.cause = root.seq
        && (relevant deps e || e.seq = target.seq)
      then rel := e :: !rel)
    t.events;
  root :: List.rev !rel

(* the latest Control_sent before [recv] addressed to its node with an
   equal payload — the only pairing the wire format allows us to recover *)
let find_sender t (recv : Ev.t) ctl =
  let best = ref None in
  Array.iter
    (fun (e : Ev.t) ->
      if e.seq < recv.seq then
        match e.body with
        | Ev.Control_sent { dst_nid; ctl = c }
          when dst_nid = recv.nid && Ev.ctl_equal c ctl ->
            best := Some e
        | _ -> ())
    t.events;
  !best

let max_hops = 16

let build_chain t deps (target : Ev.t) =
  let rec go target hops acc =
    match Hashtbl.find_opt t.by_seq target.Ev.cause with
    | None -> [ target ] :: acc (* root overwritten in the ring *)
    | Some root -> (
        let seg = segment t deps ~root ~target in
        match root.body with
        | Ev.Control_received { ctl } when hops > 0 -> (
            match find_sender t root ctl with
            | Some sent -> go sent (hops - 1) (seg :: acc)
            | None -> seg :: acc)
        | _ -> seg :: acc)
  in
  go target max_hops []

let array_find_opt p a =
  let n = Array.length a in
  let rec go i = if i = n then None else if p a.(i) then Some a.(i) else go (i + 1) in
  go 0

let explain t ~rule =
  let deps = rule_deps t.tables ~rule in
  let rise =
    array_find_opt
      (fun (e : Ev.t) ->
        match e.body with
        | Ev.Condition_rose { did } -> List.mem did deps.dids
        | _ -> false)
      t.events
  in
  match rise with
  | Some rise -> Fired { rise; chain = build_chain t deps rise }
  | None ->
      let last_term = ref None and last_cnt = ref None and last_pkt = ref None in
      Array.iter
        (fun (e : Ev.t) ->
          match e.body with
          | Ev.Term_flipped { tid; _ } when List.mem tid deps.tids ->
              last_term := Some e
          | Ev.Counter_changed { cid; _ } when List.mem cid deps.cids ->
              last_cnt := Some e
          | Ev.Packet_classified { fid; _ } when List.mem fid deps.fids ->
              last_pkt := Some e
          | _ -> ())
        t.events;
      Not_fired
        (match (!last_term, !last_cnt, !last_pkt) with
        | Some e, _, _ -> Saw_term e
        | None, Some e, _ -> Saw_counter e
        | None, None, Some e -> Saw_packet e
        | None, None, None -> Saw_nothing)

(* --- rendering --- *)

let pp_body_named tables ppf (b : Ev.body) =
  match b with
  | Ev.Packet_classified { point; fid } ->
      Format.fprintf ppf "packet matched filter %s (%s)"
        (T.filter_name tables fid) (Ev.point_name point)
  | Ev.Counter_changed { cid; value; delta } ->
      Format.fprintf ppf "counter %s %s to %d" (T.counter_name tables cid)
        (if delta >= 0 then Printf.sprintf "+%d" delta else string_of_int delta)
        value
  | Ev.Term_flipped { tid; status } ->
      Format.fprintf ppf "term t%d flipped %s" tid
        (if status then "true" else "false")
  | Ev.Condition_rose { did } -> Format.fprintf ppf "condition d%d rose" did
  | Ev.Action_fired { did; aid } ->
      Format.fprintf ppf "action a%d fired (condition d%d)" aid did
  | Ev.Fault_applied { fault; aid; _ } ->
      Format.fprintf ppf "fault %s applied (action a%d)" (Ev.fault_name fault)
        aid
  | Ev.Control_sent { dst_nid; ctl } ->
      Format.fprintf ppf "control %s sent to %s" (Ev.ctl_name ctl)
        (T.node_name tables dst_nid)
  | Ev.Control_received { ctl } ->
      Format.fprintf ppf "control %s received" (Ev.ctl_name ctl)
  | Ev.Report_raised { nid; rule } -> (
      match rule with
      | None ->
          Format.fprintf ppf "STOP reported by %s" (T.node_name tables nid)
      | Some r ->
          Format.fprintf ppf "rule %d flagged by %s" r (T.node_name tables nid))
  | Ev.Expect_checked { xid; ok } ->
      Format.fprintf ppf "expectation %d %s" xid
        (if ok then "passed" else "failed")

let pp_event tables ppf (e : Ev.t) =
  Format.fprintf ppf "#%-5d %a  [%s]  %a" e.seq Vw_sim.Simtime.pp e.time e.node
    (pp_body_named tables) e.body

let pp_verdict tables ~rule ppf = function
  | Fired { rise; chain } ->
      Format.fprintf ppf "rule %d FIRED at %a on %s (condition d%d)@." rule
        Vw_sim.Simtime.pp rise.Ev.time rise.Ev.node
        (match rise.Ev.body with Ev.Condition_rose { did } -> did | _ -> -1);
      Format.fprintf ppf "causal chain, origin first:@.";
      List.iteri
        (fun i seg ->
          if i > 0 then
            Format.fprintf ppf "  -- control frame crosses the wire --@.";
          List.iter
            (fun e -> Format.fprintf ppf "  %a@." (pp_event tables) e)
            seg)
        chain
  | Not_fired stage -> (
      Format.fprintf ppf "rule %d did NOT fire.@." rule;
      match stage with
      | Saw_nothing ->
          Format.fprintf ppf
            "furthest stage: none — no packet matched the rule's filters, no \
             counter it reads ever changed.@."
      | Saw_packet e ->
          Format.fprintf ppf
            "furthest stage: filter match — packets matched, but no counter \
             of the rule changed. Last:@.  %a@." (pp_event tables) e
      | Saw_counter e ->
          Format.fprintf ppf
            "furthest stage: counter change — counters moved, but no term of \
             the rule flipped. Last:@.  %a@." (pp_event tables) e
      | Saw_term e ->
          Format.fprintf ppf
            "furthest stage: term flip — terms flipped, but the condition \
             never rose. Last:@.  %a@." (pp_event tables) e)
