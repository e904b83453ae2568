type t = {
  fie : Fie.t;
  mutable tables : Vw_fsl.Tables.t option;
  mutable stop_received : bool;
  mutable errors : (int * int) list; (* newest first *)
  mutable stop_cb : unit -> unit;
}

let create fie =
  let t =
    {
      fie;
      tables = None;
      stop_received = false;
      errors = [];
      stop_cb = (fun () -> ());
    }
  in
  Fie.set_report_handler fie (function
    | Fie.Stop_report _ ->
        if not t.stop_received then begin
          t.stop_received <- true;
          t.stop_cb ()
        end
    | Fie.Error_report { nid; rule } -> t.errors <- (nid, rule) :: t.errors);
  t

let deploy t tables =
  let my_mac = Vw_stack.Host.mac (Fie.host t.fie) in
  match Vw_fsl.Tables.node_by_mac tables my_mac with
  | None -> Error "control node is not in the script's node table"
  | Some node -> (
      let my = node.Vw_fsl.Tables.nid in
      match Fie.init_local t.fie ~controller_nid:my tables with
      | Error e -> Error e
      | Ok () ->
          t.tables <- Some tables;
          let payload = Vw_fsl.Tables_codec.to_bytes tables in
          Array.iter
            (fun (n : Vw_fsl.Tables.node_entry) ->
              if n.nid <> my then
                Fie.send_control t.fie ~dst_nid:n.nid
                  (Control.Init { controller_nid = my; tables = payload }))
            tables.Vw_fsl.Tables.nodes;
          Ok ())

let start t =
  match (t.tables, Fie.my_nid t.fie) with
  | Some tables, Some my ->
      Array.iter
        (fun (n : Vw_fsl.Tables.node_entry) ->
          if n.nid <> my then Fie.send_control t.fie ~dst_nid:n.nid Control.Start)
        tables.Vw_fsl.Tables.nodes;
      Fie.start_local t.fie
  | _ -> ()

let nid t = Fie.my_nid t.fie
let errors t = List.rev t.errors
let on_stop t cb = t.stop_cb <- cb
