type window = { w_lo : Vw_sim.Simtime.t; w_hi : Vw_sim.Simtime.t }

type expect_kind =
  | X_packet of {
      xp_fid : int;
      xp_from : int;
      xp_to : int;
      xp_dir : Ast.direction;
    }
  | X_state of { xs_cid : int; xs_op : Ast.relop; xs_value : int }

type expectation = {
  xid : int;
  x_label : string;
  x_kind : expect_kind;
  x_window : window option;
}

type injection = {
  in_index : int;
  in_fid : int;
  in_from : int;
  in_to : int;
  in_at : Vw_sim.Simtime.t;
  in_frame : bytes;
}

type t = { injections : injection list; expects : expectation list }

let seconds = Vw_sim.Simtime.sec

(* The frame an INJECT sends: destination and source MACs from the node
   table, ethertype 0x0800 unless a tuple covers offset 12, then every
   literal tuple pattern blitted at its offset (a 60-byte floor keeps the
   frame switchable). Error if any tuple is a variable pattern. *)
let materialize_frame tables ~fid ~from_nid ~to_nid =
  let filter = tables.Tables.filters.(fid) in
  let nodes = tables.Tables.nodes in
  let has_var =
    List.exists
      (fun (t : Tables.tuple) ->
        match t.Tables.t_pat with
        | Tables.Var_pattern _ -> true
        | Tables.Bytes_pattern _ -> false)
      filter.Tables.f_tuples
  in
  if has_var then
    Error
      (Printf.sprintf
         "cannot INJECT %s: filter has variable patterns, no bytes to \
          materialize"
         filter.Tables.fname)
  else begin
    let frame_len =
      List.fold_left
        (fun acc (t : Tables.tuple) ->
          max acc (t.Tables.t_offset + t.Tables.t_len))
        60 filter.Tables.f_tuples
    in
    let frame = Bytes.make frame_len '\000' in
    Vw_net.Mac.write nodes.(to_nid).Tables.nmac frame ~pos:0;
    Vw_net.Mac.write nodes.(from_nid).Tables.nmac frame ~pos:6;
    let covers_ethertype =
      List.exists
        (fun (t : Tables.tuple) ->
          t.Tables.t_offset <= 12 && t.Tables.t_offset + t.Tables.t_len > 12)
        filter.Tables.f_tuples
    in
    if not covers_ethertype then begin
      Bytes.set frame 12 '\x08';
      Bytes.set frame 13 '\x00'
    end;
    List.iter
      (fun (t : Tables.tuple) ->
        match t.Tables.t_pat with
        | Tables.Bytes_pattern b ->
            Bytes.blit b 0 frame t.Tables.t_offset t.Tables.t_len
        | Tables.Var_pattern _ -> ())
      filter.Tables.f_tuples;
    Ok frame
  end

let compile tables stmts =
  let errors = ref [] in
  let error pos fmt =
    Printf.ksprintf
      (fun msg ->
        errors :=
          Printf.sprintf "%d:%d: %s" pos.Ast.line pos.Ast.col msg :: !errors)
      fmt
  in
  let filter pos name =
    match Tables.filter_by_name tables name with
    | Some f -> Some f.Tables.fid
    | None ->
        error pos "unknown filter %S in CONFORM" name;
        None
  in
  let node pos name =
    match Tables.node_by_name tables name with
    | Some n -> Some n.Tables.nid
    | None ->
        error pos "unknown node %S in CONFORM" name;
        None
  in
  let counter pos name =
    match Tables.counter_by_name tables name with
    | Some c -> Some c.Tables.cid
    | None ->
        error pos "unknown counter %S in CONFORM" name;
        None
  in
  let window pos ~at ~within =
    match (at, within) with
    | None, None -> None
    | Some t, Some tol ->
        if t < 0. || tol < 0. then begin
          error pos "negative time in EXPECT window";
          None
        end
        else
          Some
            {
              w_lo = seconds (Float.max 0. (t -. tol));
              w_hi = seconds (t +. tol);
            }
    | None, Some tol ->
        if tol < 0. then begin
          error pos "negative tolerance in EXPECT";
          None
        end
        else Some { w_lo = Vw_sim.Simtime.ns 0; w_hi = seconds tol }
    | Some t, None ->
        if t < 0. then begin
          error pos "negative time in EXPECT";
          None
        end
        else Some { w_lo = seconds t; w_hi = max_int }
  in
  let injections = ref [] and expects = ref [] in
  let n_inj = ref 0 and n_exp = ref 0 in
  List.iter
    (fun stmt ->
      match stmt with
      | Ast.Inject { i_pkt; i_from; i_to; i_at; i_pos } -> (
          match (filter i_pos i_pkt, node i_pos i_from, node i_pos i_to) with
          | Some in_fid, Some in_from, Some in_to -> (
              if i_at < 0. then error i_pos "negative INJECT time"
              else
                match
                  materialize_frame tables ~fid:in_fid ~from_nid:in_from
                    ~to_nid:in_to
                with
                | Error e -> error i_pos "%s" e
                | Ok in_frame ->
                    let in_index = !n_inj in
                    incr n_inj;
                    injections :=
                      {
                        in_index;
                        in_fid;
                        in_from;
                        in_to;
                        in_at = seconds i_at;
                        in_frame;
                      }
                      :: !injections)
          | _ -> ())
      | Ast.Expect { x_target; x_at; x_within; x_pos } ->
          let kind =
            match x_target with
            | Ast.Expect_packet f -> (
                match
                  ( filter x_pos f.Ast.f_pkt,
                    node x_pos f.Ast.f_from,
                    node x_pos f.Ast.f_to )
                with
                | Some xp_fid, Some xp_from, Some xp_to ->
                    Some
                      (X_packet { xp_fid; xp_from; xp_to; xp_dir = f.Ast.f_dir })
                | _ -> None)
            | Ast.Expect_state { s_counter; s_op; s_value } -> (
                match counter x_pos s_counter with
                | Some xs_cid ->
                    Some (X_state { xs_cid; xs_op = s_op; xs_value = s_value })
                | None -> None)
          in
          let w = window x_pos ~at:x_at ~within:x_within in
          (match kind with
          | Some x_kind ->
              let xid = !n_exp in
              incr n_exp;
              expects :=
                {
                  xid;
                  x_label = Format.asprintf "%a" Ast.pp_conform_stmt stmt;
                  x_kind;
                  x_window = w;
                }
                :: !expects
          | _ -> ()))
    stmts;
  match List.rev !errors with
  | [] ->
      Ok { injections = List.rev !injections; expects = List.rev !expects }
  | errs -> Error errs
