(* AST → six tables. See compile.mli for the placement rules. *)

type env = {
  mutable errors : string list;
  var_ids : (string, int) Hashtbl.t;
  var_lens : (string, int) Hashtbl.t;
  filter_ids : (string, int) Hashtbl.t;
  node_ids : (string, int) Hashtbl.t;
  counter_ids : (string, int) Hashtbl.t;
}

let error env pos fmt =
  Format.kasprintf
    (fun msg ->
      env.errors <-
        Printf.sprintf "%d:%d: %s" pos.Ast.line pos.Ast.col msg :: env.errors)
    fmt

let error_np env fmt =
  Format.kasprintf (fun msg -> env.errors <- msg :: env.errors) fmt

(* Interpret a raw mask/pattern literal as hex and fit it into [len] bytes
   (left-padded with zeros). *)
let hex_to_width env pos ~what raw len =
  match Vw_util.Hexutil.of_hex raw with
  | exception Invalid_argument _ ->
      error env pos "%s %S is not a hex literal" what raw;
      Bytes.create len
  | b ->
      let blen = Bytes.length b in
      if blen > len then begin
        error env pos "%s %S does not fit in %d byte(s)" what raw len;
        Bytes.create len
      end
      else begin
        let out = Bytes.create len in
        Bytes.fill out 0 len '\000';
        Bytes.blit b 0 out (len - blen) blen;
        out
      end

let compile_vars env vars =
  List.iteri
    (fun i name ->
      if Hashtbl.mem env.var_ids name then error_np env "duplicate VAR %S" name
      else Hashtbl.replace env.var_ids name i)
    vars

let compile_filters env (filters : Ast.filter_def list) =
  List.mapi
    (fun fid (f : Ast.filter_def) ->
      if Hashtbl.mem env.filter_ids f.filter_name then
        error env f.filter_pos "duplicate filter %S" f.filter_name
      else Hashtbl.replace env.filter_ids f.filter_name fid;
      let tuples =
        List.map
          (fun (tu : Ast.filter_tuple) ->
            if tu.offset < 0 then
              error env tu.tuple_pos "negative offset in filter %S" f.filter_name;
            if tu.length < 1 || tu.length > 8 then
              error env tu.tuple_pos
                "tuple length must be within [1;8] in filter %S" f.filter_name;
            let t_mask =
              Option.map
                (fun raw -> hex_to_width env tu.tuple_pos ~what:"mask" raw tu.length)
                tu.mask
            in
            let t_pat =
              match tu.pat with
              | Ast.Lit raw ->
                  Tables.Bytes_pattern
                    (hex_to_width env tu.tuple_pos ~what:"pattern" raw tu.length)
              | Ast.Var name -> (
                  match Hashtbl.find_opt env.var_ids name with
                  | None ->
                      error env tu.tuple_pos "undeclared variable %S" name;
                      Tables.Bytes_pattern (Bytes.create tu.length)
                  | Some vid ->
                      (match Hashtbl.find_opt env.var_lens name with
                      | None -> Hashtbl.replace env.var_lens name tu.length
                      | Some l when l <> tu.length ->
                          error env tu.tuple_pos
                            "variable %S used with width %d after width %d" name
                            tu.length l
                      | Some _ -> ());
                      Tables.Var_pattern vid)
            in
            { Tables.t_offset = tu.offset; t_len = tu.length; t_mask; t_pat })
          f.tuples
      in
      { Tables.fid; fname = f.filter_name; f_tuples = tuples })
    filters

let compile_nodes env (nodes : Ast.node_def list) =
  List.mapi
    (fun nid (n : Ast.node_def) ->
      if Hashtbl.mem env.node_ids n.node_name then
        error env n.node_pos "duplicate node %S" n.node_name
      else Hashtbl.replace env.node_ids n.node_name nid;
      let nmac =
        try Vw_net.Mac.of_string n.node_mac
        with Invalid_argument m ->
          error env n.node_pos "%s" m;
          Vw_net.Mac.of_int nid
      in
      let nip =
        try Vw_net.Ip_addr.of_string n.node_ip
        with Invalid_argument m ->
          error env n.node_pos "%s" m;
          Vw_net.Ip_addr.of_host_index nid
      in
      { Tables.nid; nname = n.node_name; nmac; nip })
    nodes

let lookup_node env pos name =
  match Hashtbl.find_opt env.node_ids name with
  | Some nid -> nid
  | None ->
      error env pos "unknown node %S" name;
      0

let lookup_filter env pos name =
  match Hashtbl.find_opt env.filter_ids name with
  | Some fid -> fid
  | None ->
      error env pos "unknown packet type %S" name;
      0

let lookup_counter env pos name =
  match Hashtbl.find_opt env.counter_ids name with
  | Some cid -> cid
  | None ->
      error env pos "unknown counter %S" name;
      0

let compile_counters env (decls : Ast.counter_decl list) =
  (* Names must all be registered before rules reference them. *)
  List.iteri
    (fun cid (d : Ast.counter_decl) ->
      if Hashtbl.mem env.counter_ids d.counter_name then
        error env d.counter_pos "duplicate counter %S" d.counter_name
      else Hashtbl.replace env.counter_ids d.counter_name cid)
    decls;
  List.mapi
    (fun cid (d : Ast.counter_decl) ->
      let ckind, owner =
        match d.counter_def with
        | Ast.Local_counter { at_node } ->
            (Tables.Local, lookup_node env d.counter_pos at_node)
        | Ast.Event_counter { pkt; from_node; to_node; dir } ->
            let e_fid = lookup_filter env d.counter_pos pkt in
            let e_from = lookup_node env d.counter_pos from_node in
            let e_to = lookup_node env d.counter_pos to_node in
            if String.equal from_node to_node then
              error env d.counter_pos
                "event counter %S has identical endpoints" d.counter_name;
            let owner = match dir with Ast.Send -> e_from | Ast.Recv -> e_to in
            (Tables.Event { e_fid; e_from; e_to; e_dir = dir }, owner)
      in
      {
        Tables.cid;
        cname = d.counter_name;
        ckind;
        owner;
        affected_terms = [];
        value_subscribers = [];
      })
    decls

(* --- rules: terms, conditions, actions --- *)

type build = {
  mutable terms : Tables.term_entry list; (* reversed *)
  mutable term_count : int;
  term_keys : (int * Ast.relop * Tables.term_operand, int) Hashtbl.t;
  mutable actions : Tables.action_entry list; (* reversed *)
  mutable action_count : int;
}

let intern_term env b pos counters (term : Ast.term) =
  let left = lookup_counter env pos term.t_left in
  let right =
    match term.t_right with
    | Ast.Const n -> Tables.Num n
    | Ast.Counter_ref name -> Tables.Cnt (lookup_counter env pos name)
  in
  let key = (left, term.t_op, right) in
  match Hashtbl.find_opt b.term_keys key with
  | Some tid -> tid
  | None ->
      let tid = b.term_count in
      b.term_count <- tid + 1;
      Hashtbl.replace b.term_keys key tid;
      let eval_node =
        if Array.length counters = 0 then 0 else counters.(left).Tables.owner
      in
      b.terms <-
        {
          Tables.tid;
          left;
          op = term.t_op;
          right;
          eval_node;
          status_subscribers = [];
          in_conditions = [];
        }
        :: b.terms;
      tid

let rec compile_cond env b pos counters (cond : Ast.cond) =
  match cond with
  | Ast.True -> Tables.C_true
  | Ast.Term term -> Tables.C_term (intern_term env b pos counters term)
  | Ast.And (x, y) ->
      let cx = compile_cond env b pos counters x in
      Tables.C_and (cx, compile_cond env b pos counters y)
  | Ast.Or (x, y) ->
      let cx = compile_cond env b pos counters x in
      Tables.C_or (cx, compile_cond env b pos counters y)
  | Ast.Not x -> Tables.C_not (compile_cond env b pos counters x)

let rec first_counter_of_cond (cond : Ast.cond) =
  match cond with
  | Ast.True -> None
  | Ast.Term term -> Some term.t_left
  | Ast.And (x, y) | Ast.Or (x, y) -> (
      match first_counter_of_cond x with
      | Some c -> Some c
      | None -> first_counter_of_cond y)
  | Ast.Not x -> first_counter_of_cond x

let compile_fspec env pos (s : Ast.fault_spec) =
  let fs_fid = lookup_filter env pos s.f_pkt in
  let fs_from = lookup_node env pos s.f_from in
  let fs_to = lookup_node env pos s.f_to in
  { Tables.fs_fid; fs_from; fs_to; fs_dir = s.f_dir }

let fspec_exec_node (s : Tables.fspec) =
  match s.fs_dir with Ast.Send -> s.fs_from | Ast.Recv -> s.fs_to

let compile_action env b pos counters ~anchor ~rule_index (a : Ast.action) =
  let counter_owner name =
    let cid = lookup_counter env pos name in
    let owner =
      if Array.length counters = 0 then 0 else counters.(cid).Tables.owner
    in
    (cid, owner)
  in
  let exec_node, act =
    match a with
    | Ast.Assign_cntr (c, v) ->
        let cid, owner = counter_owner c in
        (owner, Tables.A_assign (cid, Option.value v ~default:0))
    | Ast.Enable_cntr c ->
        let cid, owner = counter_owner c in
        (owner, Tables.A_enable cid)
    | Ast.Disable_cntr c ->
        let cid, owner = counter_owner c in
        (owner, Tables.A_disable cid)
    | Ast.Incr_cntr (c, v) ->
        let cid, owner = counter_owner c in
        (owner, Tables.A_incr (cid, v))
    | Ast.Decr_cntr (c, v) ->
        let cid, owner = counter_owner c in
        (owner, Tables.A_decr (cid, v))
    | Ast.Reset_cntr c ->
        let cid, owner = counter_owner c in
        (owner, Tables.A_reset cid)
    | Ast.Set_curtime c ->
        let cid, owner = counter_owner c in
        (owner, Tables.A_set_curtime cid)
    | Ast.Elapsed_time c ->
        let cid, owner = counter_owner c in
        (owner, Tables.A_elapsed_time cid)
    | Ast.Drop s ->
        let s = compile_fspec env pos s in
        (fspec_exec_node s, Tables.A_drop s)
    | Ast.Delay (s, seconds) ->
        let s = compile_fspec env pos s in
        if seconds <= 0.0 then error env pos "DELAY duration must be positive";
        (fspec_exec_node s, Tables.A_delay (s, Vw_sim.Simtime.sec seconds))
    | Ast.Reorder (s, n, order) ->
        let s = compile_fspec env pos s in
        if n < 2 then error env pos "REORDER needs at least 2 packets";
        let sorted = List.sort compare order in
        if sorted <> List.init n (fun i -> i + 1) then
          error env pos "REORDER order must be a permutation of 1..%d" n;
        (fspec_exec_node s, Tables.A_reorder (s, n, Array.of_list order))
    | Ast.Dup s ->
        let s = compile_fspec env pos s in
        (fspec_exec_node s, Tables.A_dup s)
    | Ast.Modify (s, pat) ->
        let s = compile_fspec env pos s in
        let pat =
          match pat with
          | Ast.Random_bytes -> None
          | Ast.Set_bytes { m_offset; m_bytes } -> (
              match Vw_util.Hexutil.of_hex m_bytes with
              | b -> Some (m_offset, b)
              | exception Invalid_argument _ ->
                  error env pos "MODIFY pattern %S is not hex" m_bytes;
                  None)
        in
        (fspec_exec_node s, Tables.A_modify (s, pat))
    | Ast.Fail node -> (
        let nid = lookup_node env pos node in
        (nid, Tables.A_fail nid))
    | Ast.Stop -> (anchor, Tables.A_stop)
    | Ast.Flag_error -> (anchor, Tables.A_flag_error rule_index)
    | Ast.Bind_var (v, raw) -> (
        match Hashtbl.find_opt env.var_ids v with
        | None ->
            error env pos "undeclared variable %S" v;
            (anchor, Tables.A_bind_var (0, Bytes.create 0))
        | Some vid ->
            let len =
              Option.value (Hashtbl.find_opt env.var_lens v) ~default:0
            in
            if len = 0 then
              error env pos "variable %S is never used in a filter" v;
            let b = hex_to_width env pos ~what:"value" raw (max len 1) in
            (* Bindings are broadcast: every node classifies packets. *)
            (anchor, Tables.A_bind_var (vid, b)))
  in
  let aid = b.action_count in
  b.action_count <- aid + 1;
  b.actions <- { Tables.aid; exec_node; act } :: b.actions;
  (exec_node, aid)

let compile (script : Ast.script) =
  let env =
    {
      errors = [];
      var_ids = Hashtbl.create 8;
      var_lens = Hashtbl.create 8;
      filter_ids = Hashtbl.create 16;
      node_ids = Hashtbl.create 8;
      counter_ids = Hashtbl.create 16;
    }
  in
  compile_vars env script.vars;
  let filters = Array.of_list (compile_filters env script.filters) in
  let nodes = Array.of_list (compile_nodes env script.nodes) in
  if Array.length nodes = 0 then error_np env "NODE_TABLE is empty";
  let counters =
    Array.of_list (compile_counters env script.scenario.counters)
  in
  let b =
    {
      terms = [];
      term_count = 0;
      term_keys = Hashtbl.create 16;
      actions = [];
      action_count = 0;
    }
  in
  let conds, rule_of_cond =
    List.mapi
      (fun rule_index (rule : Ast.rule) ->
        let expr = compile_cond env b rule.rule_pos counters rule.condition in
        let anchor =
          match first_counter_of_cond rule.condition with
          | Some name ->
              let cid = lookup_counter env rule.rule_pos name in
              if Array.length counters = 0 then 0
              else counters.(cid).Tables.owner
          | None -> 0
        in
        let placed =
          List.map
            (compile_action env b rule.rule_pos counters ~anchor ~rule_index)
            rule.actions
        in
        let eval_nodes = List.sort_uniq compare (List.map fst placed) in
        ( {
            Tables.did = rule_index;
            expr;
            eval_nodes;
            cond_actions = placed;
          },
          rule_index ))
      script.scenario.rules
    |> List.split
  in
  let conds = Array.of_list conds in
  let terms = Array.of_list (List.rev b.terms) in
  let actions = Array.of_list (List.rev b.actions) in
  (* Wire the dependency lists: term → conditions, term → status
     subscribers, counter → terms, counter → value subscribers. *)
  let term_conditions = Array.make (Array.length terms) [] in
  let rec walk_expr did = function
    | Tables.C_true -> ()
    | Tables.C_term tid ->
        if not (List.mem did term_conditions.(tid)) then
          term_conditions.(tid) <- did :: term_conditions.(tid)
    | Tables.C_and (x, y) | Tables.C_or (x, y) ->
        walk_expr did x;
        walk_expr did y
    | Tables.C_not x -> walk_expr did x
  in
  Array.iter (fun (c : Tables.cond_entry) -> walk_expr c.did c.expr) conds;
  let terms =
    Array.map
      (fun (term : Tables.term_entry) ->
        let in_conditions = List.rev term_conditions.(term.tid) in
        let status_subscribers =
          List.sort_uniq compare
            (List.concat_map
               (fun did -> conds.(did).Tables.eval_nodes)
               in_conditions)
          |> List.filter (fun nid -> nid <> term.eval_node)
        in
        { term with in_conditions; status_subscribers })
      terms
  in
  let counters =
    Array.map
      (fun (c : Tables.counter_entry) ->
        let affected_terms =
          Array.to_list terms
          |> List.filter (fun (term : Tables.term_entry) ->
                 term.left = c.cid || term.right = Tables.Cnt c.cid)
          |> List.map (fun (term : Tables.term_entry) -> term.tid)
        in
        let value_subscribers =
          affected_terms
          |> List.map (fun tid -> terms.(tid).Tables.eval_node)
          |> List.filter (fun nid -> nid <> c.owner)
          |> List.sort_uniq compare
        in
        { c with affected_terms; value_subscribers })
      counters
  in
  if env.errors <> [] then Error (List.rev env.errors)
  else
    Ok
      {
        Tables.scenario_name = script.scenario.scenario_name;
        inactivity_timeout =
          Option.map Vw_sim.Simtime.sec script.scenario.inactivity_timeout;
        vars =
          Array.of_list
            (List.mapi
               (fun vid vname ->
                 {
                   Tables.vid;
                   vname;
                   v_len =
                     Option.value
                       (Hashtbl.find_opt env.var_lens vname)
                       ~default:0;
                 })
               script.vars);
        filters;
        nodes;
        counters;
        terms;
        conds;
        actions;
        rule_of_cond = Array.of_list rule_of_cond;
      }

let compile_exn script =
  match compile script with
  | Ok t -> t
  | Error errs -> failwith (String.concat "\n" errs)

let parse_and_compile src =
  match Parser.parse src with
  | Error e -> Error e
  | Ok script -> (
      match compile script with
      | Ok t -> Ok t
      | Error errs -> Error (String.concat "\n" errs))
