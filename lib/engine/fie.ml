let src = Logs.Src.create "vw.fie" ~doc:"Fault Injection/Analysis Engine"

module Log = (val Logs.src_log src : Logs.LOG)
module Tables = Vw_fsl.Tables
module Ast = Vw_fsl.Ast
module Rec = Vw_obs.Recorder
module Ev = Vw_obs.Event
module Mx = Vw_obs.Metrics

type report =
  | Stop_report of { nid : int }
  | Error_report of { nid : int; rule : int }

type stats = {
  mutable packets_inspected : int;
  mutable packets_matched : int;
  mutable filters_scanned : int;
  mutable index_hits : int;
  mutable index_misses : int;
  mutable counter_updates : int;
  mutable terms_evaluated : int;
  mutable conditions_evaluated : int;
  mutable actions_executed : int;
  mutable control_sent : int;
  mutable control_received : int;
  mutable faults_drop : int;
  mutable faults_delay : int;
  mutable faults_reorder : int;
  mutable faults_dup : int;
  mutable faults_modify : int;
  mutable cascade_overflows : int;
}

let new_stats () =
  {
    packets_inspected = 0;
    packets_matched = 0;
    filters_scanned = 0;
    index_hits = 0;
    index_misses = 0;
    counter_updates = 0;
    terms_evaluated = 0;
    conditions_evaluated = 0;
    actions_executed = 0;
    control_sent = 0;
    control_received = 0;
    faults_drop = 0;
    faults_delay = 0;
    faults_reorder = 0;
    faults_dup = 0;
    faults_modify = 0;
    cascade_overflows = 0;
  }

(* A fault action of this node, precomputed at init for the per-packet
   check. [af_src]/[af_dst] are the MACs a matching frame must carry
   (resolved once from the node table); the fid/direction checks are
   static and encoded by the (point, fid) bucket the fault lives in. *)
type armed_fault = {
  af_did : int; (* owning condition *)
  af_aid : int;
  af_src : Vw_net.Mac.t;
  af_dst : Vw_net.Mac.t;
  af_kind :
    [ `Drop
    | `Delay of Vw_sim.Simtime.t
    | `Reorder of int * int array
    | `Dup
    | `Modify of (int * bytes) option ];
}

(* An event counter this node observes at one hook point, precomputed per
   (point, fid) so the per-packet path touches only candidates. *)
type observer = { ob_cid : int; ob_src : Vw_net.Mac.t; ob_dst : Vw_net.Mac.t }

type runtime = {
  tables : Tables.t;
  compiled : Tables.Compiled.t; (* the classifier's filter table and index *)
  controller_nid : int;
  nid : int;
  term_local : bool array; (* tid -> this node evaluates the term *)
  cond_local : bool array; (* did -> this node evaluates the condition *)
  counter_values : int array;
  counter_enabled : bool array;
  term_status : bool array;
  cond_status : bool array;
  bindings : bytes option array;
  observing_counters : observer array array array;
      (* [point].[fid] -> counters this node may bump for that match *)
  faults_by_fid : armed_fault array array array;
      (* [point].[fid] -> armed faults in action-id order *)
  reorder_buffers : (int, Vw_net.Eth.t Queue.t) Hashtbl.t;
  (* reusable cascade worklists, sized to the table dimensions *)
  ws_counters : Vw_util.Worklist.t;
  ws_counters_next : Vw_util.Worklist.t;
  ws_terms : Vw_util.Worklist.t;
  ws_conds : Vw_util.Worklist.t;
  mutable started : bool;
  mutable last_match : Vw_sim.Simtime.t option;
}

let pindex = function Vw_stack.Hook.Ingress -> 0 | Vw_stack.Hook.Egress -> 1

type cost_model = {
  cost_base : Vw_sim.Simtime.t;
  cost_per_filter : Vw_sim.Simtime.t;
  cost_per_action : Vw_sim.Simtime.t;
}

(* Histogram handles, resolved once against the run's metrics registry when
   observability is enabled; [None] keeps the per-packet path free of even
   a registry lookup. *)
type mx = {
  mx_cascade_depth : Mx.histogram;
  mx_filters_scanned : Mx.histogram;
  mx_delay_occupancy : Mx.histogram;
  mx_reorder_occupancy : Mx.histogram;
  mx_control_fanout : Mx.histogram;
}

type t = {
  hst : Vw_stack.Host.t;
  stats : stats;
  cls : Classifier.scan_stats; (* cumulative classifier counters *)
  mutable rt : runtime option;
  mutable report_handler : report -> unit;
  mutable egress_hook : Vw_stack.Host.hook_id option;
  mutable ingress_hook : Vw_stack.Host.hook_id option;
  mutable cost : cost_model option;
  mutable obs : Rec.t; (* flight recorder; Rec.null = disabled, no-op *)
  mutable mx : mx option;
  mutable delayed_inflight : int; (* DELAY-stolen frames not yet reinjected *)
}

let host t = t.hst

let stats t =
  (* mirror the classifier's cumulative counters at read time *)
  t.stats.filters_scanned <- t.cls.Classifier.filters_scanned;
  t.stats.index_hits <- t.cls.Classifier.index_hits;
  t.stats.index_misses <- t.cls.Classifier.index_misses;
  t.stats
let stats_fields (s : stats) =
  [
    ("packets_inspected", s.packets_inspected);
    ("packets_matched", s.packets_matched);
    ("filters_scanned", s.filters_scanned);
    ("index_hits", s.index_hits);
    ("index_misses", s.index_misses);
    ("counter_updates", s.counter_updates);
    ("terms_evaluated", s.terms_evaluated);
    ("conditions_evaluated", s.conditions_evaluated);
    ("actions_executed", s.actions_executed);
    ("control_sent", s.control_sent);
    ("control_received", s.control_received);
    ("faults_drop", s.faults_drop);
    ("faults_delay", s.faults_delay);
    ("faults_reorder", s.faults_reorder);
    ("faults_dup", s.faults_dup);
    ("faults_modify", s.faults_modify);
    ("cascade_overflows", s.cascade_overflows);
  ]

let my_nid t = Option.map (fun rt -> rt.nid) t.rt
let set_report_handler t fn = t.report_handler <- fn

let set_observability t ~recorder ~metrics =
  t.obs <- recorder;
  (match t.rt with Some rt -> Rec.set_nid recorder rt.nid | None -> ());
  t.mx <-
    (if Mx.enabled metrics then
       Some
         {
           mx_cascade_depth =
             Mx.histogram metrics
               ~buckets:[| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 |]
               "fie.cascade_depth";
           mx_filters_scanned =
             Mx.histogram metrics
               ~buckets:[| 0; 1; 2; 4; 8; 16; 32; 64 |]
               "fie.filters_scanned_per_packet";
           mx_delay_occupancy =
             Mx.histogram metrics "fie.delay_queue_occupancy";
           mx_reorder_occupancy =
             Mx.histogram metrics "fie.reorder_queue_occupancy";
           mx_control_fanout =
             Mx.histogram metrics
               ~buckets:[| 0; 1; 2; 4; 8; 16; 32 |]
               "fie.control_fanout_per_cascade";
         }
     else None)

let ctl_of_msg = function
  | Control.Init _ -> Ev.C_init
  | Control.Start -> Ev.C_start
  | Control.Counter_update { cid; value } -> Ev.C_counter_update { cid; value }
  | Control.Term_status { tid; status } -> Ev.C_term_status { tid; status }
  | Control.Var_bind { vid; _ } -> Ev.C_var_bind { vid }
  | Control.Report_stop { nid } -> Ev.C_report_stop { nid }
  | Control.Report_error { nid; rule } -> Ev.C_report_error { nid; rule }

let last_match_time t =
  match t.rt with Some rt -> rt.last_match | None -> None

let counter_value t name =
  match t.rt with
  | None -> None
  | Some rt ->
      Option.map
        (fun (c : Tables.counter_entry) -> rt.counter_values.(c.cid))
        (Tables.counter_by_name rt.tables name)

let counters t =
  match t.rt with
  | None -> []
  | Some rt ->
      Array.to_list rt.tables.Tables.counters
      |> List.map (fun (c : Tables.counter_entry) ->
             ( c.cname,
               rt.counter_values.(c.cid),
               rt.counter_enabled.(c.cid) ))

let term_status t tid =
  match t.rt with
  | Some rt when tid >= 0 && tid < Array.length rt.term_status ->
      Some (rt.term_status.(tid))
  | _ -> None

let now t = Vw_sim.Engine.now (Vw_stack.Host.engine t.hst)

(* --- term & condition evaluation, over the record tables --- *)

let eval_term rt tid =
  Tables.eval_term rt.tables ~counter_values:rt.counter_values tid

let eval_cond rt did =
  Tables.eval_cond rt.tables ~term_status:rt.term_status did

(* An action's write to a counter: a change is recorded and seeds the next
   cascade round through [changed]. *)
let set_value t rt ~changed cid v =
  if rt.counter_values.(cid) <> v then begin
    let delta = v - rt.counter_values.(cid) in
    rt.counter_values.(cid) <- v;
    t.stats.counter_updates <- t.stats.counter_updates + 1;
    if Rec.enabled t.obs then
      ignore (Rec.emit_counter_changed t.obs ~cid ~value:v ~delta);
    ignore (Vw_util.Worklist.add changed cid)
  end

(* The cascade walks the tables' own dependency lists. The walkers are
   plain recursive functions, not [List.iter] closures, so a cascade
   round allocates no closure per list. *)

(* counter → the terms this node evaluates over it *)
let rec add_local_terms rt = function
  | [] -> ()
  | tid :: rest ->
      if rt.term_local.(tid) then ignore (Vw_util.Worklist.add rt.ws_terms tid);
      add_local_terms rt rest

(* term → the conditions this node evaluates over it *)
let rec add_local_conds rt = function
  | [] -> ()
  | did :: rest ->
      if rt.cond_local.(did) then ignore (Vw_util.Worklist.add rt.ws_conds did);
      add_local_conds rt rest

(* terms a remote evaluator pushed → the conditions this node evaluates
   over them *)
let rec add_ext_conds rt = function
  | [] -> ()
  | tid :: rest ->
      add_local_conds rt rt.tables.Tables.terms.(tid).Tables.in_conditions;
      add_ext_conds rt rest

(* --- control-plane sending --- *)

let rec send_control t ~dst_nid msg =
  match t.rt with
  | None -> ()
  | Some rt ->
      if dst_nid = rt.nid then process_control t msg
      else begin
        t.stats.control_sent <- t.stats.control_sent + 1;
        if Rec.enabled t.obs then
          ignore (Rec.emit_control_sent t.obs ~dst_nid ~ctl:(ctl_of_msg msg));
        let dst = rt.tables.Tables.nodes.(dst_nid).Tables.nmac in
        let frame =
          Control.to_frame ~src:(Vw_stack.Host.mac t.hst) ~dst msg
        in
        Vw_stack.Host.send_frame t.hst frame
      end

(* counter [cid]'s value to each remote term evaluator *)
and send_counter_updates t rt cid = function
  | [] -> ()
  | dst_nid :: rest ->
      send_control t ~dst_nid
        (Control.Counter_update { cid; value = rt.counter_values.(cid) });
      send_counter_updates t rt cid rest

(* term [tid]'s new status to each remote condition evaluator *)
and send_term_statuses t ~tid ~status = function
  | [] -> ()
  | dst_nid :: rest ->
      send_control t ~dst_nid (Control.Term_status { tid; status });
      send_term_statuses t ~tid ~status rest

and report t report_value =
  match t.rt with
  | None -> ()
  | Some rt ->
      if Rec.enabled t.obs then begin
        match report_value with
        | Stop_report { nid } ->
            ignore (Rec.emit_report_raised t.obs ~nid ~rule:None)
        | Error_report { nid; rule } ->
            ignore (Rec.emit_report_raised t.obs ~nid ~rule:(Some rule))
      end;
      let msg =
        match report_value with
        | Stop_report { nid } -> Control.Report_stop { nid }
        | Error_report { nid; rule } -> Control.Report_error { nid; rule }
      in
      if rt.nid = rt.controller_nid then t.report_handler report_value
      else send_control t ~dst_nid:rt.controller_nid msg

(* --- action execution --- *)

and execute_action t rt ~did ~aid ~changed =
  t.stats.actions_executed <- t.stats.actions_executed + 1;
  if Rec.enabled t.obs then ignore (Rec.emit_action_fired t.obs ~did ~aid);
  match rt.tables.Tables.actions.(aid).Tables.act with
  | Tables.A_assign (cid, v) ->
      rt.counter_enabled.(cid) <- true;
      set_value t rt ~changed cid v
  | Tables.A_enable cid -> rt.counter_enabled.(cid) <- true
  | Tables.A_disable cid -> rt.counter_enabled.(cid) <- false
  | Tables.A_incr (cid, v) ->
      set_value t rt ~changed cid (rt.counter_values.(cid) + v)
  | Tables.A_decr (cid, v) ->
      set_value t rt ~changed cid (rt.counter_values.(cid) - v)
  | Tables.A_reset cid -> set_value t rt ~changed cid 0
  | Tables.A_set_curtime cid ->
      set_value t rt ~changed cid (int_of_float (Vw_sim.Simtime.to_ms (now t)))
  | Tables.A_elapsed_time cid ->
      set_value t rt ~changed cid
        (int_of_float (Vw_sim.Simtime.to_ms (now t)) - rt.counter_values.(cid))
  | Tables.A_bind_var (vid, value) ->
      rt.bindings.(vid) <- Some value;
      Array.iter
        (fun (n : Tables.node_entry) ->
          if n.nid <> rt.nid then
            send_control t ~dst_nid:n.nid (Control.Var_bind { vid; value }))
        rt.tables.Tables.nodes
  | Tables.A_fail nid -> if nid = rt.nid then Vw_stack.Host.fail t.hst
  | Tables.A_stop -> report t (Stop_report { nid = rt.nid })
  | Tables.A_flag_error rule -> report t (Error_report { nid = rt.nid; rule })
  | Tables.A_drop _ | Tables.A_delay _ | Tables.A_reorder _ | Tables.A_dup _
  | Tables.A_modify _ ->
      (* Faults are level-armed through their condition's status; nothing
         to do at the edge. *)
      ()

(* condition [did]'s (node, action) pairs: fire this node's, in order *)
and fire_actions t rt ~did ~changed = function
  | [] -> ()
  | (nid, aid) :: rest ->
      if nid = rt.nid then execute_action t rt ~did ~aid ~changed;
      fire_actions t rt ~did ~changed rest

(* the risen conditions, in ascending did order *)
and fire_risen t rt ~changed = function
  | [] -> ()
  | did :: rest ->
      fire_actions t rt ~did ~changed
        rt.tables.Tables.conds.(did).Tables.cond_actions;
      fire_risen t rt ~changed rest

(* --- the cascade (Figure 3 / Figure 4b) ---

   Seeds: counters whose values changed (locally or via control message)
   and/or terms whose status was pushed from a remote evaluator. Each round
   re-evaluates affected local terms, then affected local conditions from a
   snapshot, fires rising edges, and feeds resulting counter changes into
   the next round. *)

and cascade t rt ~changed_counters ~changed_terms =
  let module W = Vw_util.Worklist in
  let max_rounds = 100 in
  let round = ref 0 in
  let ctl_sent_before = t.stats.control_sent in
  (* double-buffered counter worklists: [cur] feeds this round, actions
     fired this round fill [next]; both are owned by the runtime and only
     reset here, so a cascade allocates nothing per round *)
  let cur = ref rt.ws_counters in
  let next = ref rt.ws_counters_next in
  W.clear !cur;
  List.iter (fun cid -> ignore (W.add !cur cid)) changed_counters;
  let ext_terms = ref changed_terms in
  let continue = ref true in
  while !continue do
    incr round;
    if !round > max_rounds then begin
      t.stats.cascade_overflows <- t.stats.cascade_overflows + 1;
      Log.err (fun m ->
          m "%s: rule cascade did not converge" (Vw_stack.Host.name t.hst));
      report t (Error_report { nid = rt.nid; rule = -1 });
      continue := false
    end
    else begin
      (* 1. ship counter updates to remote term evaluators *)
      W.iter
        (fun cid ->
          let c = rt.tables.Tables.counters.(cid) in
          if c.Tables.owner = rt.nid then
            send_counter_updates t rt cid c.Tables.value_subscribers)
        !cur;
      (* 2. re-evaluate local terms over the changed counters *)
      W.clear rt.ws_terms;
      W.iter
        (fun cid ->
          add_local_terms rt
            rt.tables.Tables.counters.(cid).Tables.affected_terms)
        !cur;
      W.sort rt.ws_terms;
      (* terms that flipped (locally or pushed from a remote evaluator)
         feed the conditions they participate in *)
      W.clear rt.ws_conds;
      W.iter
        (fun tid ->
          t.stats.terms_evaluated <- t.stats.terms_evaluated + 1;
          let status = eval_term rt tid in
          if status <> rt.term_status.(tid) then begin
            rt.term_status.(tid) <- status;
            if Rec.enabled t.obs then
              ignore (Rec.emit_term_flipped t.obs ~tid ~status);
            let term = rt.tables.Tables.terms.(tid) in
            send_term_statuses t ~tid ~status term.Tables.status_subscribers;
            add_local_conds rt term.Tables.in_conditions
          end)
        rt.ws_terms;
      add_ext_conds rt !ext_terms;
      ext_terms := [];
      W.sort rt.ws_conds;
      (* 3. snapshot-evaluate affected conditions, collect rising edges *)
      let risen = ref [] in
      W.iter
        (fun did ->
          t.stats.conditions_evaluated <- t.stats.conditions_evaluated + 1;
          let status = eval_cond rt did in
          if status && not rt.cond_status.(did) then begin
            if Rec.enabled t.obs then
              ignore (Rec.emit_condition_rose t.obs ~did);
            risen := did :: !risen
          end;
          rt.cond_status.(did) <- status)
        rt.ws_conds;
      (* 4. fire the risen conditions' local actions, in ascending did
         order (the worklist was sorted; [risen] was built by prepending) *)
      W.clear !next;
      fire_risen t rt ~changed:!next (List.rev !risen);
      let tmp = !cur in
      cur := !next;
      next := tmp;
      if W.is_empty !cur then continue := false
    end
  done;
  match t.mx with
  | None -> ()
  | Some m ->
      Mx.observe m.mx_cascade_depth !round;
      Mx.observe m.mx_control_fanout (t.stats.control_sent - ctl_sent_before)

(* --- control-plane receive --- *)

and process_control t msg =
  t.stats.control_received <- t.stats.control_received + 1;
  match (msg, t.rt) with
  | Control.Init { controller_nid; tables }, _ -> (
      match Vw_fsl.Tables_codec.of_bytes tables with
      | Error e ->
          Log.err (fun m -> m "%s: bad INIT: %s" (Vw_stack.Host.name t.hst) e)
      | Ok tables -> (
          match init_local t ~controller_nid tables with
          | Ok () -> ()
          | Error e ->
              Log.info (fun m ->
                  m "%s: not participating: %s" (Vw_stack.Host.name t.hst) e)))
  | Control.Start, Some rt -> if not rt.started then start_local t
  | Control.Start, None -> ()
  | Control.Counter_update { cid; value }, Some rt ->
      if cid < Array.length rt.counter_values then begin
        if rt.counter_values.(cid) <> value then begin
          let delta = value - rt.counter_values.(cid) in
          rt.counter_values.(cid) <- value;
          if Rec.enabled t.obs then
            ignore (Rec.emit_counter_changed t.obs ~cid ~value ~delta);
          cascade t rt ~changed_counters:[ cid ] ~changed_terms:[]
        end
      end
  | Control.Term_status { tid; status }, Some rt ->
      if tid < Array.length rt.term_status then begin
        if rt.term_status.(tid) <> status then begin
          rt.term_status.(tid) <- status;
          if Rec.enabled t.obs then
            ignore (Rec.emit_term_flipped t.obs ~tid ~status);
          cascade t rt ~changed_counters:[] ~changed_terms:[ tid ]
        end
      end
  | Control.Var_bind { vid; value }, Some rt ->
      if vid < Array.length rt.bindings then rt.bindings.(vid) <- Some value
  | Control.Report_stop { nid }, Some _ -> t.report_handler (Stop_report { nid })
  | Control.Report_error { nid; rule }, Some _ ->
      t.report_handler (Error_report { nid; rule })
  | (Control.Counter_update _ | Control.Term_status _ | Control.Var_bind _
    | Control.Report_stop _ | Control.Report_error _ ), None ->
      ()

(* --- initialization --- *)

and init_local t ~controller_nid tables =
  match Tables.node_by_mac tables (Vw_stack.Host.mac t.hst) with
  | None -> Error "host MAC not in the node table"
  | Some node ->
      let nid = node.Tables.nid in
      let nodes = tables.Tables.nodes in
      let n_nodes = Array.length nodes in
      let n_filters = Array.length tables.Tables.filters in
      (* The compiler rejects malformed REORDER permutations, but tables
         also arrive over the wire; re-validate here so a corrupt
         permutation degrades to the identity instead of crashing the
         release path. *)
      let normalize_reorder ~aid n order =
        let ok =
          n >= 1
          && Array.length order = n
          && List.sort compare (Array.to_list order)
             = List.init n (fun i -> i + 1)
        in
        if ok then order
        else begin
          Log.warn (fun m ->
              m "%s: action %d: invalid REORDER permutation, using identity"
                (Vw_stack.Host.name t.hst) aid);
          Array.init (max n 0) (fun i -> i + 1)
        end
      in
      let armed =
        Array.to_list tables.Tables.conds
        |> List.concat_map (fun (cond : Tables.cond_entry) ->
               List.filter_map
                 (fun (anid, aid) ->
                   if anid <> nid then None
                   else
                     let entry = tables.Tables.actions.(aid) in
                     let kind =
                       match entry.Tables.act with
                       | Tables.A_drop _ -> Some `Drop
                       | Tables.A_delay (_, d) -> Some (`Delay d)
                       | Tables.A_reorder (_, n, order) ->
                           Some (`Reorder (n, normalize_reorder ~aid n order))
                       | Tables.A_dup _ -> Some `Dup
                       | Tables.A_modify (_, pat) -> Some (`Modify pat)
                       | Tables.A_assign _ | Tables.A_enable _
                       | Tables.A_disable _ | Tables.A_incr _ | Tables.A_decr _
                       | Tables.A_reset _ | Tables.A_set_curtime _
                       | Tables.A_elapsed_time _ | Tables.A_fail _
                       | Tables.A_stop | Tables.A_flag_error _
                       | Tables.A_bind_var _ ->
                           None
                     in
                     let spec =
                       match entry.Tables.act with
                       | Tables.A_drop s
                       | Tables.A_delay (s, _)
                       | Tables.A_reorder (s, _, _)
                       | Tables.A_dup s
                       | Tables.A_modify (s, _) ->
                           Some s
                       | _ -> None
                     in
                     match (kind, spec) with
                     | Some af_kind, Some (spec : Tables.fspec)
                       when spec.Tables.fs_from >= 0
                            && spec.Tables.fs_from < n_nodes
                            && spec.Tables.fs_to >= 0
                            && spec.Tables.fs_to < n_nodes ->
                         Some
                           ( spec,
                             {
                               af_did = cond.Tables.did;
                               af_aid = aid;
                               af_src = nodes.(spec.Tables.fs_from).Tables.nmac;
                               af_dst = nodes.(spec.Tables.fs_to).Tables.nmac;
                               af_kind;
                             } )
                     | _ -> None)
                 cond.Tables.cond_actions)
        |> List.sort (fun (_, a) (_, b) -> compare a.af_aid b.af_aid)
      in
      (* Bucket armed faults by (hook point, fid): a Send fault can only
         fire at this node's egress (and only if we are the sender), a Recv
         fault at our ingress. The per-packet path then walks just the
         candidates for the matched filter, in action-id order. *)
      let fault_acc = [| Array.make n_filters []; Array.make n_filters [] |] in
      List.iter
        (fun ((spec : Tables.fspec), af) ->
          let p =
            match spec.Tables.fs_dir with
            | Ast.Send when spec.Tables.fs_from = nid -> Some 1 (* Egress *)
            | Ast.Recv when spec.Tables.fs_to = nid -> Some 0 (* Ingress *)
            | Ast.Send | Ast.Recv -> None
          in
          match p with
          | Some p when spec.Tables.fs_fid >= 0 && spec.Tables.fs_fid < n_filters
            ->
              fault_acc.(p).(spec.Tables.fs_fid) <-
                af :: fault_acc.(p).(spec.Tables.fs_fid)
          | _ -> ())
        armed;
      let faults_by_fid =
        Array.map (Array.map (fun l -> Array.of_list (List.rev l))) fault_acc
      in
      (* Same bucketing for the event counters this node observes, with the
         expected endpoint MACs resolved once. *)
      let obs_acc = [| Array.make n_filters []; Array.make n_filters [] |] in
      Array.iter
        (fun (c : Tables.counter_entry) ->
          match c.Tables.ckind with
          | Tables.Local -> ()
          | Tables.Event { e_fid; e_from; e_to; e_dir } ->
              if
                e_fid >= 0 && e_fid < n_filters && e_from >= 0
                && e_from < n_nodes && e_to >= 0 && e_to < n_nodes
              then begin
                let ob =
                  {
                    ob_cid = c.Tables.cid;
                    ob_src = nodes.(e_from).Tables.nmac;
                    ob_dst = nodes.(e_to).Tables.nmac;
                  }
                in
                match e_dir with
                | Ast.Send when e_from = nid ->
                    obs_acc.(1).(e_fid) <- ob :: obs_acc.(1).(e_fid)
                | Ast.Recv when e_to = nid ->
                    obs_acc.(0).(e_fid) <- ob :: obs_acc.(0).(e_fid)
                | Ast.Send | Ast.Recv -> ()
              end)
        tables.Tables.counters;
      let observing_counters =
        Array.map (Array.map (fun l -> Array.of_list (List.rev l))) obs_acc
      in
      let n_counters = Array.length tables.Tables.counters in
      let compiled = Tables.compile tables in
      let term_local =
        Array.map (fun (tm : Tables.term_entry) -> tm.eval_node = nid)
          tables.Tables.terms
      in
      let cond_local =
        Array.map
          (fun (c : Tables.cond_entry) -> List.mem nid c.Tables.eval_nodes)
          tables.Tables.conds
      in
      let rt =
        {
          tables;
          compiled;
          controller_nid;
          nid;
          term_local;
          cond_local;
          counter_values = Array.make n_counters 0;
          counter_enabled = Array.make n_counters false;
          term_status = Array.make (Array.length tables.Tables.terms) false;
          cond_status = Array.make (Array.length tables.Tables.conds) false;
          bindings = Array.make (Array.length tables.Tables.vars) None;
          observing_counters;
          faults_by_fid;
          reorder_buffers = Hashtbl.create 4;
          ws_counters = Vw_util.Worklist.create n_counters;
          ws_counters_next = Vw_util.Worklist.create n_counters;
          ws_terms =
            Vw_util.Worklist.create (Array.length tables.Tables.terms);
          ws_conds =
            Vw_util.Worklist.create (Array.length tables.Tables.conds);
          started = false;
          last_match = None;
        }
      in
      (* Initial term/condition statuses from the all-zero counter state —
         every node computes the same snapshot, so no start-up burst of
         control messages is needed. *)
      Array.iteri
        (fun tid _ -> rt.term_status.(tid) <- eval_term rt tid)
        tables.Tables.terms;
      Array.iteri
        (fun did _ -> rt.cond_status.(did) <- eval_cond rt did)
        tables.Tables.conds;
      t.rt <- Some rt;
      Rec.set_nid t.obs nid;
      Ok ()

and start_local t =
  match t.rt with
  | None -> ()
  | Some rt ->
      rt.started <- true;
      (* Fire the conditions that are true at scenario start (the TRUE
         rules, and any degenerate always-true conditions). *)
      let changed =
        Vw_util.Worklist.create (Array.length rt.counter_values)
      in
      Array.iter
        (fun (cond : Tables.cond_entry) ->
          if
            rt.cond_status.(cond.Tables.did)
            && List.mem rt.nid cond.Tables.eval_nodes
          then
            fire_actions t rt ~did:cond.Tables.did ~changed
              cond.Tables.cond_actions)
        rt.tables.Tables.conds;
      cascade t rt
        ~changed_counters:(Vw_util.Worklist.to_list changed)
        ~changed_terms:[]

(* --- the per-packet path --- *)

let reinject t point frame =
  Vw_stack.Host.reinject t.hst point
    ~from_priority:Vw_stack.Hook.priority_virtualwire frame

let apply_fault t rt point (frame : Vw_net.Eth.t) (af : armed_fault) =
  if Rec.enabled t.obs then begin
    let fault =
      match af.af_kind with
      | `Drop -> Ev.Drop
      | `Delay _ -> Ev.Delay
      | `Reorder _ -> Ev.Reorder
      | `Dup -> Ev.Dup
      | `Modify _ -> Ev.Modify
    in
    ignore
      (Rec.emit_fault_applied t.obs ~did:af.af_did ~aid:af.af_aid ~fault)
  end;
  match af.af_kind with
  | `Drop ->
      t.stats.faults_drop <- t.stats.faults_drop + 1;
      Vw_stack.Hook.Drop
  | `Delay duration ->
      t.stats.faults_delay <- t.stats.faults_delay + 1;
      t.delayed_inflight <- t.delayed_inflight + 1;
      (match t.mx with
      | Some m -> Mx.observe m.mx_delay_occupancy t.delayed_inflight
      | None -> ());
      ignore
        (Vw_stack.Host.set_timer t.hst ~delay:duration (fun () ->
             t.delayed_inflight <- t.delayed_inflight - 1;
             reinject t point frame));
      Vw_stack.Hook.Stolen
  | `Reorder (n, order) ->
      t.stats.faults_reorder <- t.stats.faults_reorder + 1;
      let buffer =
        match Hashtbl.find_opt rt.reorder_buffers af.af_aid with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace rt.reorder_buffers af.af_aid q;
            q
      in
      Queue.add frame buffer;
      (match t.mx with
      | Some m -> Mx.observe m.mx_reorder_occupancy (Queue.length buffer)
      | None -> ());
      if Queue.length buffer >= n then begin
        let frames = Array.of_seq (Queue.to_seq buffer) in
        Queue.clear buffer;
        (* release in the user's permutation, as one burst; indices were
           validated at compile time and normalized at init, but clamp
           anyway — a bad index must never crash the release path *)
        let m = Array.length frames in
        if m > 0 then
          Array.iter
            (fun idx ->
              let i = max 0 (min (m - 1) (idx - 1)) in
              reinject t point frames.(i))
            order
      end;
      Vw_stack.Hook.Stolen
  | `Dup ->
      t.stats.faults_dup <- t.stats.faults_dup + 1;
      reinject t point frame;
      Vw_stack.Hook.Accept frame
  | `Modify pat ->
      t.stats.faults_modify <- t.stats.faults_modify + 1;
      let data = Vw_net.Eth.to_bytes frame in
      (match pat with
      | Some (offset, b) ->
          let len = min (Bytes.length b) (max 0 (Bytes.length data - offset)) in
          if len > 0 && offset >= 0 then Bytes.blit b 0 data offset len
      | None ->
          (* Random perturbation, sparing the Ethernet header so the frame
             still reaches its destination and fails there (checksum). *)
          let prng = Vw_sim.Engine.prng (Vw_stack.Host.engine t.hst) in
          let span = Bytes.length data - Vw_net.Eth.header_size in
          if span > 0 then
            for _ = 1 to 3 do
              let pos = Vw_net.Eth.header_size + Vw_util.Prng.int prng span in
              Bytes.set data pos
                (Char.chr
                   (Char.code (Bytes.get data pos)
                   lxor (1 + Vw_util.Prng.int prng 255)))
            done);
      Vw_stack.Hook.Accept (Vw_net.Eth.of_bytes data)

(* Withhold an accepted packet for the configured processing cost before it
   continues through the rest of the chain. *)
let charge_cost t point ~scanned ~actions verdict =
  match t.cost with
  | None -> verdict
  | Some cm ->
      let cost =
        Vw_sim.Simtime.(
          cm.cost_base
          + (scanned * cm.cost_per_filter)
          + (actions * cm.cost_per_action))
      in
      if cost <= 0 then verdict
      else begin
        match verdict with
        | Vw_stack.Hook.Accept frame ->
            Vw_sim.Engine.schedule_after
              (Vw_stack.Host.engine t.hst)
              ~delay:cost
              (fun () -> reinject t point frame);
            Vw_stack.Hook.Stolen
        | (Vw_stack.Hook.Drop | Vw_stack.Hook.Stolen) as v -> v
      end

(* Everything after classification: observers → cascade → first armed
   fault → cost charge. [fid < 0] means "no filter matched". *)
let process_classified t rt point (frame : Vw_net.Eth.t) ~fid ~scanned =
  let actions_before = t.stats.actions_executed in
  (match t.mx with
  | Some m -> Mx.observe m.mx_filters_scanned scanned
  | None -> ());
  if fid < 0 then
    charge_cost t point ~scanned ~actions:0 (Vw_stack.Hook.Accept frame)
  else begin
    t.stats.packets_matched <- t.stats.packets_matched + 1;
    rt.last_match <- Some (now t);
    (* the classification event roots the causal chain for everything
       this packet triggers, until the verdict is decided *)
    let recording = Rec.enabled t.obs in
    let prev_cause = if recording then Rec.cause t.obs else -1 in
    if recording then begin
      let obs_point =
        match point with
        | Vw_stack.Hook.Ingress -> Ev.Ingress
        | Vw_stack.Hook.Egress -> Ev.Egress
      in
      ignore (Rec.emit_packet_classified t.obs ~point:obs_point ~fid)
    end;
    let p = pindex point in
    (* 1. counter updates: only the observers precomputed for this
       (point, fid) *)
    let changed = ref [] in
    Array.iter
      (fun ob ->
        if
          rt.counter_enabled.(ob.ob_cid)
          && Vw_net.Mac.equal frame.src ob.ob_src
          && Vw_net.Mac.equal frame.dst ob.ob_dst
        then begin
          rt.counter_values.(ob.ob_cid) <- rt.counter_values.(ob.ob_cid) + 1;
          t.stats.counter_updates <- t.stats.counter_updates + 1;
          if recording then
            ignore
              (Rec.emit_counter_changed t.obs ~cid:ob.ob_cid
                 ~value:rt.counter_values.(ob.ob_cid) ~delta:1);
          changed := ob.ob_cid :: !changed
        end)
      rt.observing_counters.(p).(fid);
    (* 2. cascade *)
    if !changed <> [] then
      cascade t rt ~changed_counters:(List.rev !changed) ~changed_terms:[];
    (* 3. apply the first armed fault for this (point, fid) whose
       condition holds and whose endpoints match *)
    let faults = rt.faults_by_fid.(p).(fid) in
    let n_faults = Array.length faults in
    let rec first_fault i =
      if i = n_faults then None
      else
        let af = faults.(i) in
        if
          rt.cond_status.(af.af_did)
          && Vw_net.Mac.equal frame.src af.af_src
          && Vw_net.Mac.equal frame.dst af.af_dst
        then Some af
        else first_fault (i + 1)
    in
    let verdict =
      match first_fault 0 with
      | Some af -> apply_fault t rt point frame af
      | None -> Vw_stack.Hook.Accept frame
    in
    if recording then Rec.set_cause t.obs prev_cause;
    charge_cost t point ~scanned
      ~actions:(t.stats.actions_executed - actions_before)
      verdict
  end

let handle_packet t point (frame : Vw_net.Eth.t) =
  t.stats.packets_inspected <- t.stats.packets_inspected + 1;
  match t.rt with
  | None -> Vw_stack.Hook.Accept frame
  | Some rt when not rt.started -> Vw_stack.Hook.Accept frame
  | Some rt ->
      let scanned_before = t.cls.Classifier.filters_scanned in
      let fid =
        match
          Classifier.classify_frame_c ~stats:t.cls rt.compiled
            ~bindings:rt.bindings frame
        with
        | Some fid -> fid
        | None -> -1
      in
      let scanned = t.cls.Classifier.filters_scanned - scanned_before in
      process_classified t rt point frame ~fid ~scanned

let control_ingress t (frame : Vw_net.Eth.t) =
  (match Control.of_payload frame.payload with
  | Ok msg ->
      if Rec.enabled t.obs then begin
        (* a control frame arriving off the wire roots a fresh causal
           context; stitching to the remote sender's chain happens
           offline by payload equality *)
        let prev_cause = Rec.cause t.obs in
        ignore (Rec.emit_control_received t.obs ~ctl:(ctl_of_msg msg));
        process_control t msg;
        Rec.set_cause t.obs prev_cause
      end
      else process_control t msg
  | Error e ->
      Log.err (fun m ->
          m "%s: undecodable control frame: %s" (Vw_stack.Host.name t.hst) e));
  Vw_stack.Hook.Stolen

let ingress_handler t (frame : Vw_net.Eth.t) =
  if frame.ethertype = Vw_net.Eth.ethertype_vw_control then
    control_ingress t frame
  else handle_packet t Vw_stack.Hook.Ingress frame

let egress_handler t (frame : Vw_net.Eth.t) =
  if frame.ethertype = Vw_net.Eth.ethertype_vw_control then
    (* our own control traffic is not subject to classification *)
    Vw_stack.Hook.Accept frame
  else handle_packet t Vw_stack.Hook.Egress frame

(* --- the direct entry: exactly the hook handler for [point] --- *)

let process_one t point (frame : Vw_net.Eth.t) =
  match point with
  | Vw_stack.Hook.Ingress -> ingress_handler t frame
  | Vw_stack.Hook.Egress -> egress_handler t frame

let install hst =
  let t =
    {
      hst;
      stats = new_stats ();
      cls = Classifier.new_scan_stats ();
      rt = None;
      report_handler = (fun _ -> ());
      egress_hook = None;
      ingress_hook = None;
      cost = None;
      obs = Rec.null;
      mx = None;
      delayed_inflight = 0;
    }
  in
  t.egress_hook <-
    Some
      (Vw_stack.Host.add_hook hst Vw_stack.Hook.Egress
         ~priority:Vw_stack.Hook.priority_virtualwire ~name:"virtualwire"
         (egress_handler t));
  t.ingress_hook <-
    Some
      (Vw_stack.Host.add_hook hst Vw_stack.Hook.Ingress
         ~priority:Vw_stack.Hook.priority_virtualwire ~name:"virtualwire"
         (ingress_handler t));
  t

let uninstall t =
  (match t.egress_hook with
  | Some id -> Vw_stack.Host.remove_hook t.hst id
  | None -> ());
  (match t.ingress_hook with
  | Some id -> Vw_stack.Host.remove_hook t.hst id
  | None -> ());
  t.egress_hook <- None;
  t.ingress_hook <- None

let reset t = t.rt <- None
let set_cost_model t cm = t.cost <- cm
