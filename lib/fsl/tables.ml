type tuple_pattern = Bytes_pattern of bytes | Var_pattern of int

type tuple = {
  t_offset : int;
  t_len : int;
  t_mask : bytes option;
  t_pat : tuple_pattern;
}

type filter_entry = { fid : int; fname : string; f_tuples : tuple list }

type var_entry = { vid : int; vname : string; v_len : int }

type node_entry = {
  nid : int;
  nname : string;
  nmac : Vw_net.Mac.t;
  nip : Vw_net.Ip_addr.t;
}

type counter_kind =
  | Event of { e_fid : int; e_from : int; e_to : int; e_dir : Ast.direction }
  | Local

type counter_entry = {
  cid : int;
  cname : string;
  ckind : counter_kind;
  owner : int;
  affected_terms : int list;
  value_subscribers : int list;
}

type term_operand = Cnt of int | Num of int

type term_entry = {
  tid : int;
  left : int;
  op : Ast.relop;
  right : term_operand;
  eval_node : int;
  status_subscribers : int list;
  in_conditions : int list;
}

type cond_expr =
  | C_true
  | C_term of int
  | C_and of cond_expr * cond_expr
  | C_or of cond_expr * cond_expr
  | C_not of cond_expr

type cond_entry = {
  did : int;
  expr : cond_expr;
  eval_nodes : int list;
  cond_actions : (int * int) list;
}

type fspec = {
  fs_fid : int;
  fs_from : int;
  fs_to : int;
  fs_dir : Ast.direction;
}

type compiled_action =
  | A_assign of int * int
  | A_enable of int
  | A_disable of int
  | A_incr of int * int
  | A_decr of int * int
  | A_reset of int
  | A_set_curtime of int
  | A_elapsed_time of int
  | A_drop of fspec
  | A_delay of fspec * Vw_sim.Simtime.t
  | A_reorder of fspec * int * int array
  | A_dup of fspec
  | A_modify of fspec * (int * bytes) option
  | A_fail of int
  | A_stop
  | A_flag_error of int
  | A_bind_var of int * bytes

type action_entry = { aid : int; exec_node : int; act : compiled_action }

type t = {
  scenario_name : string;
  inactivity_timeout : Vw_sim.Simtime.t option;
  vars : var_entry array;
  filters : filter_entry array;
  nodes : node_entry array;
  counters : counter_entry array;
  terms : term_entry array;
  conds : cond_entry array;
  actions : action_entry array;
  rule_of_cond : int array;
}

(* --- classification index ---

   Group filters by the value of one discriminating field: the (offset,
   len) window that the most filters constrain with a mask-free literal
   tuple. A filter keyed on value [v] can only match packets whose bytes at
   that window equal [v] exactly, so the classifier reads the field once
   and scans just that bucket (merged, in fid order, with the fallback
   filters that do not constrain the window — Var_pattern or masked
   tuples). Semantics are identical to the linear scan by construction:
   the lookup itself tests each bucketed filter's index tuple, so the
   compiled form does not store it. Derived from the filter table by
   [Compiled.of_tables], never shipped. *)

(* a tuple usable as an index key: a mask-free literal of 1-7 bytes,
   int-readable *)
let keyable (tu : tuple) =
  match tu.t_pat with
  | Bytes_pattern _ -> Option.is_none tu.t_mask && tu.t_len >= 1 && tu.t_len <= 7
  | Var_pattern _ -> false

(* the tuple that keys a filter on the (offset, len) window: its first
   mask-free literal there *)
let index_tuple ~offset ~len (tu : tuple) =
  tu.t_offset = offset && tu.t_len = len && keyable tu

let filter_key_at ~offset ~len (f : filter_entry) =
  match List.find_opt (index_tuple ~offset ~len) f.f_tuples with
  | Some { t_pat = Bytes_pattern b; _ } ->
      Some (Vw_util.Hexutil.to_int_be b ~pos:0 ~len:(Bytes.length b))
  | Some { t_pat = Var_pattern _; _ } | None -> None

(* each keyable window of [f] once, in tuple order *)
let keyable_windows (f : filter_entry) =
  List.fold_left
    (fun seen tu ->
      if
        keyable tu
        && not
             (List.exists
                (fun (o, l) -> o = tu.t_offset && l = tu.t_len)
                seen)
      then (tu.t_offset, tu.t_len) :: seen
      else seen)
    [] f.f_tuples

let build_index (filters : filter_entry array) =
  (* pick the discriminator: the (offset, len) keyable in the most filters;
     ties break toward the smallest window for determinism *)
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun f ->
      List.iter
        (fun k ->
          Hashtbl.replace counts k
            (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
        (keyable_windows f))
    filters;
  let best =
    Hashtbl.fold
      (fun k c acc ->
        match acc with
        | Some (k0, c0) when c > c0 || (c = c0 && k < k0) -> Some (k, c)
        | Some _ -> acc
        | None -> Some (k, c))
      counts None
  in
  (* (offset, len, buckets, fallback); offset -1 when no index *)
  match best with
  | None ->
      ( -1,
        0,
        Vw_util.Int_tbl.create 1,
        Array.init (Array.length filters) (fun i -> i) )
  | Some ((ci_offset, ci_len), _) ->
      let buckets = Vw_util.Int_tbl.create 16 in
      let fallback = ref [] in
      Array.iteri
        (fun fid f ->
          match filter_key_at ~offset:ci_offset ~len:ci_len f with
          | Some key ->
              let prev =
                Option.value (Vw_util.Int_tbl.find_opt buckets key) ~default:[]
              in
              Vw_util.Int_tbl.replace buckets key (fid :: prev)
          | None -> fallback := fid :: !fallback)
        filters;
      let ci_buckets = Vw_util.Int_tbl.create (Vw_util.Int_tbl.length buckets) in
      Vw_util.Int_tbl.iter
        (fun key fids ->
          Vw_util.Int_tbl.replace ci_buckets key (Array.of_list (List.rev fids)))
        buckets;
      (ci_offset, ci_len, ci_buckets, Array.of_list (List.rev !fallback))

(* --- term and condition evaluation ---

   The cascade evaluates terms and conditions straight from these record
   tables; nothing here allocates. *)

let eval_term t ~counter_values tid =
  let tm = t.terms.(tid) in
  let left = counter_values.(tm.left) in
  let right =
    match tm.right with Cnt cid -> counter_values.(cid) | Num n -> n
  in
  match tm.op with
  | Ast.Lt -> left < right
  | Ast.Le -> left <= right
  | Ast.Gt -> left > right
  | Ast.Ge -> left >= right
  | Ast.Eq -> left = right
  | Ast.Ne -> left <> right

let rec eval_expr term_status = function
  | C_true -> true
  | C_term tid -> term_status.(tid)
  | C_and (a, b) -> eval_expr term_status a && eval_expr term_status b
  | C_or (a, b) -> eval_expr term_status a || eval_expr term_status b
  | C_not a -> not (eval_expr term_status a)

let eval_cond t ~term_status did = eval_expr term_status t.conds.(did).expr

type t_record = t

(* --- the classifier's compiled structure-of-arrays form ---

   [Compiled.of_tables] flattens the filter table once, at INIT, into dense
   int arrays and builds the classification index, so the per-packet
   classifier reads contiguous ints instead of chasing list cells and
   variant blocks. A filter's tuples land in three places: the tuple the
   bucket lookup already tests (a bucketed filter's index tuple) is
   dropped, the first keyed tuple left goes to the fid-indexed [fk_*]
   arrays, and any others go to the CSR arrays over a shared byte pool.
   Nothing here is shipped: every field is derived, and the equivalence
   with the linear scan over the record form is property-tested. *)

module Compiled = struct
  type t = {
    (* the key tuple of each filter, indexed by fid; (14, 0, 0, 0), the
       empty window at the payload's start that every frame matches, when
       it has none *)
    fk_pos : int array;
    fk_len : int array;
    fk_mask : int array;
    fk_key : int array;
    (* the remaining tuples in CSR form over a shared byte pool *)
    f_start : int array;  (* fid -> first tuple index; length n_filters+1 *)
    tu_offset : int array;
    tu_pat : int array;
        (* keyed (literal, plen <= 7): the int key; longer literal: pool
           offset; < 0: var pattern -(vid+1) *)
    tu_plen : int array;  (* literal pattern byte length; 0 for vars *)
    tu_mask : int array;
        (* keyed: the int mask; otherwise pool offset of the mask, -1 =
           no mask *)
    tu_mlen : int array;  (* mask byte length; 0 = unmasked *)
    pool : bytes;  (* the patterns and masks of unkeyed tuples *)
    (* classification index (see [build_index]; the bucket arrays are
       immutable once built) *)
    ci_offset : int;
    ci_len : int;
    ci_buckets : int array Vw_util.Int_tbl.t;
    ci_fallback : int array;
  }

  (* Literal tuples of at most [max_key_len] bytes compile to one
     big-endian int each: the key holds [pattern land mask] and the mask
     the int mask, so the classifier tests [window land mask = key] with
     one read and one compare. Seven bytes is the most a 63-bit int holds
     unsigned. *)
  let max_key_len = 7

  let keyed c ti = c.tu_pat.(ti) >= 0 && c.tu_plen.(ti) <= max_key_len

  (* a tuple that compiles to an int key and mask *)
  let is_keyed (tu : tuple) =
    match tu.t_pat with
    | Bytes_pattern b -> Bytes.length b <= max_key_len
    | Var_pattern _ -> false

  (* the int form of a mask over a [len]-byte window: bytes beyond a short
     mask (and every byte when there is none) count as 0xff *)
  let int_mask mask len =
    let m = ref 0 in
    for i = 0 to len - 1 do
      let byte =
        match mask with
        | Some mb when i < Bytes.length mb -> Char.code (Bytes.get mb i)
        | Some _ | None -> 0xff
      in
      m := (!m lsl 8) lor byte
    done;
    !m

  (* a keyed tuple's (mask, key) *)
  let int_key (tu : tuple) b =
    let len = Bytes.length b in
    let mask = int_mask tu.t_mask len in
    let value = if len = 0 then 0 else Vw_util.Hexutil.to_int_be b ~pos:0 ~len in
    (mask, value land mask)

  (* [l] without its first element satisfying [p], and that element *)
  let rec take_first p = function
    | [] -> (None, [])
    | x :: rest when p x -> (Some x, rest)
    | x :: rest ->
        let found, rest = take_first p rest in
        (found, x :: rest)

  let of_tables (t : t_record) =
    let ci_offset, ci_len, ci_buckets, ci_fallback = build_index t.filters in
    let n_filters = Array.length t.filters in
    (* the tuples the scan still tests: the bucket lookup has tested a
       bucketed filter's index tuple, the one [filter_key_at] found *)
    let is_index_tuple = index_tuple ~offset:ci_offset ~len:ci_len in
    let fk_pos = Array.make n_filters Vw_net.Eth.header_size in
    let fk_len = Array.make n_filters 0 in
    let fk_mask = Array.make n_filters 0 and fk_key = Array.make n_filters 0 in
    let rest =
      Array.mapi
        (fun fid (f : filter_entry) ->
          let _, tuples = take_first is_index_tuple f.f_tuples in
          match take_first is_keyed tuples with
          | Some ({ t_pat = Bytes_pattern b; _ } as tu), rest ->
              let mask, key = int_key tu b in
              fk_pos.(fid) <- tu.t_offset;
              fk_len.(fid) <- Bytes.length b;
              fk_mask.(fid) <- mask;
              fk_key.(fid) <- key;
              rest
          | Some { t_pat = Var_pattern _; _ }, _ | None, _ -> tuples)
        t.filters
    in
    (* the rest: count tuples, then fill arrays and the byte pool *)
    let f_start = Array.make (n_filters + 1) 0 in
    for fid = 0 to n_filters - 1 do
      f_start.(fid + 1) <- f_start.(fid) + List.length rest.(fid)
    done;
    let n_tuples = f_start.(n_filters) in
    let tu_offset = Array.make n_tuples 0 in
    let tu_pat = Array.make n_tuples 0 in
    let tu_plen = Array.make n_tuples 0 in
    let tu_mask = Array.make n_tuples (-1) in
    let tu_mlen = Array.make n_tuples 0 in
    let pool_buf = Buffer.create 256 in
    let intern b =
      let off = Buffer.length pool_buf in
      Buffer.add_bytes pool_buf b;
      off
    in
    Array.iteri
      (fun fid tuples ->
        List.iteri
          (fun k (tu : tuple) ->
            let ti = f_start.(fid) + k in
            tu_offset.(ti) <- tu.t_offset;
            (match tu.t_mask with
            | Some m -> tu_mlen.(ti) <- Bytes.length m
            | None -> tu_mlen.(ti) <- 0);
            match tu.t_pat with
            | Bytes_pattern b when is_keyed tu ->
                let mask, key = int_key tu b in
                tu_pat.(ti) <- key;
                tu_plen.(ti) <- Bytes.length b;
                tu_mask.(ti) <- mask
            | Bytes_pattern b ->
                tu_pat.(ti) <- intern b;
                tu_plen.(ti) <- Bytes.length b;
                tu_mask.(ti) <- Option.fold ~none:(-1) ~some:intern tu.t_mask
            | Var_pattern vid ->
                tu_pat.(ti) <- -(vid + 1);
                tu_plen.(ti) <- 0;
                tu_mask.(ti) <- Option.fold ~none:(-1) ~some:intern tu.t_mask)
          tuples)
      rest;
    let pool = Buffer.to_bytes pool_buf in
    {
      fk_pos;
      fk_len;
      fk_mask;
      fk_key;
      f_start;
      tu_offset;
      tu_pat;
      tu_plen;
      tu_mask;
      tu_mlen;
      pool;
      ci_offset;
      ci_len;
      ci_buckets;
      ci_fallback;
    }
end

let compile = Compiled.of_tables

let index_stats (c : Compiled.t) =
  let largest =
    Vw_util.Int_tbl.fold
      (fun _ fids m -> max m (Array.length fids))
      c.ci_buckets 0
  in
  (Vw_util.Int_tbl.length c.ci_buckets, largest, Array.length c.ci_fallback)

let array_find pred arr =
  let n = Array.length arr in
  let rec go i = if i = n then None else if pred arr.(i) then Some arr.(i) else go (i + 1) in
  go 0

let node_by_name t name = array_find (fun n -> n.nname = name) t.nodes
let node_by_mac t mac = array_find (fun n -> Vw_net.Mac.equal n.nmac mac) t.nodes
let counter_by_name t name = array_find (fun c -> c.cname = name) t.counters
let filter_by_name t name = array_find (fun f -> f.fname = name) t.filters

let name_of arr id name kind =
  if id >= 0 && id < Array.length arr then name arr.(id)
  else Printf.sprintf "%s#%d" kind id

let filter_name t fid = name_of t.filters fid (fun f -> f.fname) "filter"
let node_name t nid = name_of t.nodes nid (fun n -> n.nname) "node"
let counter_name t cid = name_of t.counters cid (fun c -> c.cname) "counter"

(* --- pretty printing --- *)

let pp_tuple t ppf tuple =
  let pat =
    match tuple.t_pat with
    | Bytes_pattern b -> "0x" ^ Vw_util.Hexutil.to_hex b
    | Var_pattern vid -> t.vars.(vid).vname
  in
  match tuple.t_mask with
  | None -> Format.fprintf ppf "(%d %d %s)" tuple.t_offset tuple.t_len pat
  | Some m ->
      Format.fprintf ppf "(%d %d 0x%s %s)" tuple.t_offset tuple.t_len
        (Vw_util.Hexutil.to_hex m) pat

let pp_ints ppf ids =
  Format.fprintf ppf "[%s]" (String.concat "," (List.map string_of_int ids))

let rec pp_expr ppf = function
  | C_true -> Format.pp_print_string ppf "TRUE"
  | C_term tid -> Format.fprintf ppf "t%d" tid
  | C_and (a, b) -> Format.fprintf ppf "(%a && %a)" pp_expr a pp_expr b
  | C_or (a, b) -> Format.fprintf ppf "(%a || %a)" pp_expr a pp_expr b
  | C_not a -> Format.fprintf ppf "(!%a)" pp_expr a

let pp_action_entry t ppf (a : action_entry) =
  let node nid = if nid >= 0 && nid < Array.length t.nodes then t.nodes.(nid).nname else "?" in
  let counter cid = t.counters.(cid).cname in
  let filter fid = t.filters.(fid).fname in
  let fs ppf s =
    Format.fprintf ppf "%s, %s, %s, %s" (filter s.fs_fid) (node s.fs_from)
      (node s.fs_to)
      (Ast.direction_to_string s.fs_dir)
  in
  match a.act with
  | A_assign (c, v) -> Format.fprintf ppf "ASSIGN %s := %d" (counter c) v
  | A_enable c -> Format.fprintf ppf "ENABLE %s" (counter c)
  | A_disable c -> Format.fprintf ppf "DISABLE %s" (counter c)
  | A_incr (c, v) -> Format.fprintf ppf "INCR %s += %d" (counter c) v
  | A_decr (c, v) -> Format.fprintf ppf "DECR %s -= %d" (counter c) v
  | A_reset c -> Format.fprintf ppf "RESET %s" (counter c)
  | A_set_curtime c -> Format.fprintf ppf "SET_CURTIME %s" (counter c)
  | A_elapsed_time c -> Format.fprintf ppf "ELAPSED_TIME %s" (counter c)
  | A_drop s -> Format.fprintf ppf "DROP(%a)" fs s
  | A_delay (s, d) ->
      Format.fprintf ppf "DELAY(%a, %a)" fs s Vw_sim.Simtime.pp d
  | A_reorder (s, n, order) ->
      Format.fprintf ppf "REORDER(%a, %d, [%s])" fs s n
        (String.concat " " (Array.to_list (Array.map string_of_int order)))
  | A_dup s -> Format.fprintf ppf "DUP(%a)" fs s
  | A_modify (s, None) -> Format.fprintf ppf "MODIFY(%a, RANDOM)" fs s
  | A_modify (s, Some (off, b)) ->
      Format.fprintf ppf "MODIFY(%a, (%d 0x%s))" fs s off
        (Vw_util.Hexutil.to_hex b)
  | A_fail nid -> Format.fprintf ppf "FAIL(%s)" (node nid)
  | A_stop -> Format.pp_print_string ppf "STOP"
  | A_flag_error rule -> Format.fprintf ppf "FLAG_ERROR (rule %d)" rule
  | A_bind_var (vid, b) ->
      Format.fprintf ppf "BIND_VAR(%s, 0x%s)" t.vars.(vid).vname
        (Vw_util.Hexutil.to_hex b)

let pp ppf t =
  Format.fprintf ppf "@[<v>SCENARIO %s" t.scenario_name;
  (match t.inactivity_timeout with
  | Some d -> Format.fprintf ppf " (inactivity timeout %a)" Vw_sim.Simtime.pp d
  | None -> ());
  Format.fprintf ppf "@,-- filter table (%d) --" (Array.length t.filters);
  Array.iter
    (fun f ->
      Format.fprintf ppf "@,  f%d %s: " f.fid f.fname;
      List.iteri
        (fun i tuple ->
          if i > 0 then Format.fprintf ppf ", ";
          pp_tuple t ppf tuple)
        f.f_tuples)
    t.filters;
  Format.fprintf ppf "@,-- node table (%d) --" (Array.length t.nodes);
  Array.iter
    (fun n ->
      Format.fprintf ppf "@,  n%d %s %a %a" n.nid n.nname Vw_net.Mac.pp n.nmac
        Vw_net.Ip_addr.pp n.nip)
    t.nodes;
  Format.fprintf ppf "@,-- counter table (%d) --" (Array.length t.counters);
  Array.iter
    (fun c ->
      let kind =
        match c.ckind with
        | Local -> "local"
        | Event { e_fid; e_from; e_to; e_dir } ->
            Printf.sprintf "event %s %s->%s %s" t.filters.(e_fid).fname
              t.nodes.(e_from).nname t.nodes.(e_to).nname
              (Ast.direction_to_string e_dir)
      in
      Format.fprintf ppf "@,  c%d %s (%s) @@%s terms=%a subscribers=%a" c.cid
        c.cname kind t.nodes.(c.owner).nname pp_ints c.affected_terms pp_ints
        c.value_subscribers)
    t.counters;
  Format.fprintf ppf "@,-- term table (%d) --" (Array.length t.terms);
  Array.iter
    (fun term ->
      let right =
        match term.right with
        | Cnt c -> t.counters.(c).cname
        | Num n -> string_of_int n
      in
      Format.fprintf ppf "@,  t%d: %s %s %s @@%s conds=%a status->%a" term.tid
        t.counters.(term.left).cname
        (Ast.relop_to_string term.op)
        right
        t.nodes.(term.eval_node).nname
        pp_ints term.in_conditions pp_ints term.status_subscribers)
    t.terms;
  Format.fprintf ppf "@,-- condition table (%d) --" (Array.length t.conds);
  Array.iter
    (fun c ->
      Format.fprintf ppf "@,  d%d: %a eval@@%a actions=[%s]" c.did pp_expr
        c.expr pp_ints c.eval_nodes
        (String.concat ","
           (List.map
              (fun (nid, aid) ->
                Printf.sprintf "%s:a%d" t.nodes.(nid).nname aid)
              c.cond_actions)))
    t.conds;
  Format.fprintf ppf "@,-- action table (%d) --" (Array.length t.actions);
  Array.iter
    (fun a ->
      Format.fprintf ppf "@,  a%d @@%s: %a" a.aid
        (if a.exec_node >= 0 then t.nodes.(a.exec_node).nname else "?")
        (pp_action_entry t) a)
    t.actions;
  Format.fprintf ppf "@]"
