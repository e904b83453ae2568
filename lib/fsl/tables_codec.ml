open Tables
module W = Wire.W
module R = Wire.R

let magic = 0x56574952 (* "VWIR" *)
let version = 1

let write_direction w = function
  | Ast.Send -> W.u8 w 0
  | Ast.Recv -> W.u8 w 1

let read_direction r =
  match R.u8 r with
  | 0 -> Ast.Send
  | 1 -> Ast.Recv
  | n -> raise (R.Underflow (Printf.sprintf "bad direction %d" n))

let write_relop w op =
  W.u8 w
    (match op with
    | Ast.Lt -> 0
    | Ast.Le -> 1
    | Ast.Gt -> 2
    | Ast.Ge -> 3
    | Ast.Eq -> 4
    | Ast.Ne -> 5)

let read_relop r =
  match R.u8 r with
  | 0 -> Ast.Lt
  | 1 -> Ast.Le
  | 2 -> Ast.Gt
  | 3 -> Ast.Ge
  | 4 -> Ast.Eq
  | 5 -> Ast.Ne
  | n -> raise (R.Underflow (Printf.sprintf "bad relop %d" n))

let write_tuple w t =
  W.u16 w t.t_offset;
  W.u8 w t.t_len;
  W.option w (fun w m -> W.bytes w m) t.t_mask;
  match t.t_pat with
  | Bytes_pattern b ->
      W.u8 w 0;
      W.bytes w b
  | Var_pattern vid ->
      W.u8 w 1;
      W.u16 w vid

let read_tuple r =
  let t_offset = R.u16 r in
  let t_len = R.u8 r in
  let t_mask = R.option r R.bytes in
  let t_pat =
    match R.u8 r with
    | 0 ->
        let b = R.bytes r in
        (* the compiler sizes every literal to its tuple's window; the
           classification index keys on [t_len] bytes while matching
           compares the pattern's own length, so the two must agree *)
        if Bytes.length b <> t_len then
          raise
            (R.Underflow
               (Printf.sprintf "pattern of %d bytes in a %d-byte tuple"
                  (Bytes.length b) t_len));
        Bytes_pattern b
    | 1 -> Var_pattern (R.u16 r)
    | n -> raise (R.Underflow (Printf.sprintf "bad pattern tag %d" n))
  in
  { t_offset; t_len; t_mask; t_pat }

let write_fspec w s =
  W.u16 w s.fs_fid;
  W.u16 w s.fs_from;
  W.u16 w s.fs_to;
  write_direction w s.fs_dir

let read_fspec r =
  let fs_fid = R.u16 r in
  let fs_from = R.u16 r in
  let fs_to = R.u16 r in
  let fs_dir = read_direction r in
  { fs_fid; fs_from; fs_to; fs_dir }

let write_action w (a : action_entry) =
  W.u16 w a.aid;
  W.u16 w (a.exec_node land 0xffff);
  match a.act with
  | A_assign (c, v) ->
      W.u8 w 0;
      W.u16 w c;
      W.i64 w v
  | A_enable c ->
      W.u8 w 1;
      W.u16 w c
  | A_disable c ->
      W.u8 w 2;
      W.u16 w c
  | A_incr (c, v) ->
      W.u8 w 3;
      W.u16 w c;
      W.i64 w v
  | A_decr (c, v) ->
      W.u8 w 4;
      W.u16 w c;
      W.i64 w v
  | A_reset c ->
      W.u8 w 5;
      W.u16 w c
  | A_set_curtime c ->
      W.u8 w 6;
      W.u16 w c
  | A_elapsed_time c ->
      W.u8 w 7;
      W.u16 w c
  | A_drop s ->
      W.u8 w 8;
      write_fspec w s
  | A_delay (s, d) ->
      W.u8 w 9;
      write_fspec w s;
      W.i64 w d
  | A_reorder (s, n, order) ->
      W.u8 w 10;
      write_fspec w s;
      W.u16 w n;
      W.list w (fun w v -> W.u16 w v) (Array.to_list order)
  | A_dup s ->
      W.u8 w 11;
      write_fspec w s
  | A_modify (s, pat) ->
      W.u8 w 12;
      write_fspec w s;
      W.option w
        (fun w (off, b) ->
          W.u16 w off;
          W.bytes w b)
        pat
  | A_fail nid ->
      W.u8 w 13;
      W.u16 w nid
  | A_stop -> W.u8 w 14
  | A_flag_error rule ->
      W.u8 w 15;
      W.u16 w rule
  | A_bind_var (vid, b) ->
      W.u8 w 16;
      W.u16 w vid;
      W.bytes w b

let read_action r =
  let aid = R.u16 r in
  let exec_node =
    let v = R.u16 r in
    if v = 0xffff then -1 else v
  in
  let act =
    match R.u8 r with
    | 0 ->
        let c = R.u16 r in
        A_assign (c, R.i64 r)
    | 1 -> A_enable (R.u16 r)
    | 2 -> A_disable (R.u16 r)
    | 3 ->
        let c = R.u16 r in
        A_incr (c, R.i64 r)
    | 4 ->
        let c = R.u16 r in
        A_decr (c, R.i64 r)
    | 5 -> A_reset (R.u16 r)
    | 6 -> A_set_curtime (R.u16 r)
    | 7 -> A_elapsed_time (R.u16 r)
    | 8 -> A_drop (read_fspec r)
    | 9 ->
        let s = read_fspec r in
        A_delay (s, R.i64 r)
    | 10 ->
        let s = read_fspec r in
        let n = R.u16 r in
        A_reorder (s, n, Array.of_list (R.list r R.u16))
    | 11 -> A_dup (read_fspec r)
    | 12 ->
        let s = read_fspec r in
        A_modify
          ( s,
            R.option r (fun r ->
                let off = R.u16 r in
                (off, R.bytes r)) )
    | 13 -> A_fail (R.u16 r)
    | 14 -> A_stop
    | 15 -> A_flag_error (R.u16 r)
    | 16 ->
        let vid = R.u16 r in
        A_bind_var (vid, R.bytes r)
    | n -> raise (R.Underflow (Printf.sprintf "bad action tag %d" n))
  in
  { aid; exec_node; act }

let rec write_expr w = function
  | C_true -> W.u8 w 0
  | C_term tid ->
      W.u8 w 1;
      W.u16 w tid
  | C_and (a, b) ->
      W.u8 w 2;
      write_expr w a;
      write_expr w b
  | C_or (a, b) ->
      W.u8 w 3;
      write_expr w a;
      write_expr w b
  | C_not a ->
      W.u8 w 4;
      write_expr w a

let rec read_expr r =
  match R.u8 r with
  | 0 -> C_true
  | 1 -> C_term (R.u16 r)
  | 2 ->
      let a = read_expr r in
      C_and (a, read_expr r)
  | 3 ->
      let a = read_expr r in
      C_or (a, read_expr r)
  | 4 -> C_not (read_expr r)
  | n -> raise (R.Underflow (Printf.sprintf "bad expr tag %d" n))

let int_list w vs = Wire.W.list w (fun w v -> Wire.W.u16 w v) vs
let read_int_list r = R.list r R.u16

let to_bytes (t : t) =
  let w = W.create () in
  W.u32 w magic;
  W.u8 w version;
  W.string w t.scenario_name;
  W.option w (fun w d -> W.i64 w d) t.inactivity_timeout;
  W.list w
    (fun w (v : var_entry) ->
      W.u16 w v.vid;
      W.string w v.vname;
      W.u8 w v.v_len)
    (Array.to_list t.vars);
  W.list w
    (fun w (f : filter_entry) ->
      W.u16 w f.fid;
      W.string w f.fname;
      W.list w write_tuple f.f_tuples)
    (Array.to_list t.filters);
  W.list w
    (fun w (n : node_entry) ->
      W.u16 w n.nid;
      W.string w n.nname;
      W.string w (Vw_net.Mac.to_string n.nmac);
      W.string w (Vw_net.Ip_addr.to_string n.nip))
    (Array.to_list t.nodes);
  W.list w
    (fun w (c : counter_entry) ->
      W.u16 w c.cid;
      W.string w c.cname;
      (match c.ckind with
      | Local -> W.u8 w 0
      | Event { e_fid; e_from; e_to; e_dir } ->
          W.u8 w 1;
          W.u16 w e_fid;
          W.u16 w e_from;
          W.u16 w e_to;
          write_direction w e_dir);
      W.u16 w c.owner;
      int_list w c.affected_terms;
      int_list w c.value_subscribers)
    (Array.to_list t.counters);
  W.list w
    (fun w (term : term_entry) ->
      W.u16 w term.tid;
      W.u16 w term.left;
      write_relop w term.op;
      (match term.right with
      | Cnt c ->
          W.u8 w 0;
          W.u16 w c
      | Num n ->
          W.u8 w 1;
          W.i64 w n);
      W.u16 w term.eval_node;
      int_list w term.status_subscribers;
      int_list w term.in_conditions)
    (Array.to_list t.terms);
  W.list w
    (fun w (c : cond_entry) ->
      W.u16 w c.did;
      write_expr w c.expr;
      int_list w c.eval_nodes;
      W.list w
        (fun w (nid, aid) ->
          W.u16 w nid;
          W.u16 w aid)
        c.cond_actions)
    (Array.to_list t.conds);
  W.list w write_action (Array.to_list t.actions);
  int_list w (Array.to_list t.rule_of_cond);
  W.contents w

let of_bytes data =
  try
    let r = R.of_bytes data in
    if R.u32 r <> magic then Error "tables: bad magic"
    else if R.u8 r <> version then Error "tables: unsupported version"
    else begin
      let scenario_name = R.string r in
      let inactivity_timeout = R.option r R.i64 in
      let vars =
        R.list r (fun r ->
            let vid = R.u16 r in
            let vname = R.string r in
            let v_len = R.u8 r in
            { vid; vname; v_len })
      in
      let filters =
        R.list r (fun r ->
            let fid = R.u16 r in
            let fname = R.string r in
            let f_tuples = R.list r read_tuple in
            { fid; fname; f_tuples })
      in
      let nodes =
        R.list r (fun r ->
            let nid = R.u16 r in
            let nname = R.string r in
            let nmac = Vw_net.Mac.of_string (R.string r) in
            let nip = Vw_net.Ip_addr.of_string (R.string r) in
            { nid; nname; nmac; nip })
      in
      let counters =
        R.list r (fun r ->
            let cid = R.u16 r in
            let cname = R.string r in
            let ckind =
              match R.u8 r with
              | 0 -> Local
              | 1 ->
                  let e_fid = R.u16 r in
                  let e_from = R.u16 r in
                  let e_to = R.u16 r in
                  Event { e_fid; e_from; e_to; e_dir = read_direction r }
              | n -> raise (R.Underflow (Printf.sprintf "bad counter kind %d" n))
            in
            let owner = R.u16 r in
            let affected_terms = read_int_list r in
            let value_subscribers = read_int_list r in
            { cid; cname; ckind; owner; affected_terms; value_subscribers })
      in
      let terms =
        R.list r (fun r ->
            let tid = R.u16 r in
            let left = R.u16 r in
            let op = read_relop r in
            let right =
              match R.u8 r with
              | 0 -> Cnt (R.u16 r)
              | 1 -> Num (R.i64 r)
              | n -> raise (R.Underflow (Printf.sprintf "bad operand tag %d" n))
            in
            let eval_node = R.u16 r in
            let status_subscribers = read_int_list r in
            let in_conditions = read_int_list r in
            { tid; left; op; right; eval_node; status_subscribers; in_conditions })
      in
      let conds =
        R.list r (fun r ->
            let did = R.u16 r in
            let expr = read_expr r in
            let eval_nodes = read_int_list r in
            let cond_actions =
              R.list r (fun r ->
                  let nid = R.u16 r in
                  (nid, R.u16 r))
            in
            { did; expr; eval_nodes; cond_actions })
      in
      let actions = R.list r read_action in
      let rule_of_cond = read_int_list r in
      Ok
        {
          scenario_name;
          inactivity_timeout;
          vars = Array.of_list vars;
          filters = Array.of_list filters;
          nodes = Array.of_list nodes;
          counters = Array.of_list counters;
          terms = Array.of_list terms;
          conds = Array.of_list conds;
          actions = Array.of_list actions;
          rule_of_cond = Array.of_list rule_of_cond;
        }
    end
  with
  | R.Underflow what -> Error (Printf.sprintf "tables: truncated/corrupt (%s)" what)
  | Invalid_argument m -> Error (Printf.sprintf "tables: %s" m)
