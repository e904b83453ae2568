module Tables = Vw_fsl.Tables
module Classifier = Vw_engine.Classifier
module Event = Vw_obs.Event
module Scenario = Vw_core.Scenario

type defect =
  | No_defect
  | Skip_index_bucket
  | Codec_drop_action
  | Events_drop_line
  | Conform_zero_cover

let defect_to_string = function
  | No_defect -> "none"
  | Skip_index_bucket -> "skip-index-bucket"
  | Codec_drop_action -> "codec-drop-action"
  | Events_drop_line -> "events-drop-line"
  | Conform_zero_cover -> "conform-zero-cover"

let defect_names =
  [
    "none";
    "skip-index-bucket";
    "codec-drop-action";
    "events-drop-line";
    "conform-zero-cover";
  ]

let defect_of_string = function
  | "none" -> Ok No_defect
  | "skip-index-bucket" -> Ok Skip_index_bucket
  | "codec-drop-action" -> Ok Codec_drop_action
  | "events-drop-line" -> Ok Events_drop_line
  | "conform-zero-cover" -> Ok Conform_zero_cover
  | s ->
      Error
        (Printf.sprintf "unknown defect %S (expected one of: %s)" s
           (String.concat ", " defect_names))

type failure = { oracle : string; detail : string }

let fail oracle fmt = Printf.ksprintf (fun detail -> Some { oracle; detail }) fmt

(* --- print_parse_fixpoint --- *)

let check_fixpoint (c : Gen.case) =
  let printed = Vw_fsl.Ast.script_to_string c.Gen.script in
  match Vw_fsl.Parser.parse (Gen.to_fsl c) with
  | Error e -> fail "print_parse_fixpoint" "re-parse failed: %s" e
  | Ok script' ->
      let printed' = Vw_fsl.Ast.script_to_string script' in
      if printed <> printed' then
        fail "print_parse_fixpoint"
          "printing is not a parse fixpoint (lengths %d vs %d)"
          (String.length printed) (String.length printed')
      else None

(* --- classifier_diff --- *)

let max_frames_checked = 4_000

(* The engine's classifier, [classify_frame_c] over [Tables.compile],
   against the linear reference. The injected bug for the self-check
   breaks the compiled bucket lookup: with its buckets gone, a frame whose
   discriminating field selects a bucket scans only the fallback filters,
   exactly what a lookup that "forgets" the bucket would do. *)
let check_classifier ~defect (o : Runner.outcome) =
  let tables = o.Runner.o_tables in
  let compiled =
    let c = Tables.compile tables in
    match defect with
    | Skip_index_bucket ->
        { c with Tables.Compiled.ci_buckets = Vw_util.Int_tbl.create 1 }
    | _ -> c
  in
  let n_vars = Array.length tables.Tables.vars in
  let rec go i = function
    | [] -> None
    | _ when i >= max_frames_checked -> None
    | (entry : Vw_core.Trace.entry) :: rest ->
        let bindings = Array.make n_vars None in
        let bindings' = Array.make n_vars None in
        let frame = entry.Vw_core.Trace.frame in
        let indexed = Classifier.classify_frame_c compiled ~bindings frame in
        let linear =
          Classifier.classify_linear tables ~bindings:bindings'
            (Vw_net.Eth.to_bytes frame)
        in
        if indexed <> linear then
          fail "classifier_diff"
            "frame %d (%s %s): indexed classifier says %s, linear reference says %s"
            i entry.Vw_core.Trace.node
            (match entry.Vw_core.Trace.dir with `In -> "in" | `Out -> "out")
            (match indexed with Some f -> string_of_int f | None -> "no match")
            (match linear with Some f -> string_of_int f | None -> "no match")
        else go (i + 1) rest
  in
  go 0 o.Runner.o_trace

(* --- codec_roundtrip --- *)

let check_codec ~defect (o : Runner.outcome) =
  let tables = o.Runner.o_tables in
  let enc = Vw_fsl.Tables_codec.to_bytes tables in
  match Vw_fsl.Tables_codec.of_bytes enc with
  | Error e -> fail "codec_roundtrip" "decode failed: %s" e
  | Ok dec ->
      let dec =
        match defect with
        | Codec_drop_action when Array.length dec.Tables.actions > 0 ->
            {
              dec with
              Tables.actions =
                Array.sub dec.Tables.actions 0
                  (Array.length dec.Tables.actions - 1);
            }
        | _ -> dec
      in
      if tables <> dec then
        fail "codec_roundtrip" "decoded tables differ from the originals"
      else
        let enc' = Vw_fsl.Tables_codec.to_bytes dec in
        if not (Bytes.equal enc enc') then
          fail "codec_roundtrip" "re-encoding is not canonical (%d vs %d bytes)"
            (Bytes.length enc) (Bytes.length enc')
        else None

(* --- events_roundtrip + coverage_live_offline --- *)

let render_events events =
  String.concat "" (List.map (fun e -> Event.to_json e ^ "\n") events)

let check_events ~defect (o : Runner.outcome) =
  let events = o.Runner.o_events in
  let serialized =
    match defect with
    | Events_drop_line when List.length events >= 2 ->
        let drop = List.length events / 2 in
        render_events (List.filteri (fun i _ -> i <> drop) events)
    | _ -> render_events events
  in
  (* the binary codec must agree with the JSONL path on the same log:
     serialize to vw-events/2, reload through the same format-sniffing
     loader, and demand the identical typed events *)
  let binary_mismatch =
    let blob =
      Vw_obs.Binlog.of_events ~scenario:"fuzz" ~recorded:(List.length events)
        ~dropped:0 events
    in
    match Vw_report.Events_io.of_string blob with
    | Error e -> fail "events_roundtrip" "binary reload failed: %s" e
    | Ok (_, rb) when List.length rb <> List.length events ->
        fail "events_roundtrip" "%d events written, %d reloaded from binary"
          (List.length events) (List.length rb)
    | Ok (_, rb) -> (
        match List.find_opt (fun (a, b) -> a <> b) (List.combine events rb) with
        | Some (a, _) ->
            fail "events_roundtrip"
              "event seq %d does not survive the binary round-trip"
              a.Event.seq
        | None -> None)
  in
  if binary_mismatch <> None then binary_mismatch
  else
  match Vw_report.Events_io.of_string serialized with
  | Error e -> fail "events_roundtrip" "reload failed: %s" e
  | Ok (_header, reloaded) ->
      if List.length reloaded <> List.length events then
        fail "events_roundtrip" "%d events written, %d reloaded"
          (List.length events) (List.length reloaded)
      else begin
        match
          List.find_opt
            (fun (a, b) -> a <> b)
            (List.combine events reloaded)
        with
        | Some (a, _) ->
            fail "events_roundtrip" "event seq %d does not survive the round-trip"
              a.Event.seq
        | None ->
            let live =
              Vw_report.Coverage.to_json
                (Vw_report.Coverage.analyze o.Runner.o_tables events)
            in
            let offline =
              Vw_report.Coverage.to_json
                (Vw_report.Coverage.analyze o.Runner.o_tables reloaded)
            in
            if live <> offline then
              fail "coverage_live_offline"
                "coverage from live events differs from coverage from the reloaded log"
            else None
      end

(* --- counter_consistency --- *)

let check_counters (o : Runner.outcome) =
  if o.Runner.o_truncated then None
  else begin
    let view = Hashtbl.create 64 in
    let bad = ref None in
    List.iter
      (fun (e : Event.t) ->
        match e.Event.body with
        | Event.Counter_changed { cid; value; delta } when !bad = None ->
            let key = (e.Event.node, cid) in
            let prev = Option.value (Hashtbl.find_opt view key) ~default:0 in
            if value <> prev + delta then
              bad :=
                fail "counter_consistency"
                  "node %s counter %d: event seq %d says %d -> %d but delta is %d"
                  e.Event.node cid e.Event.seq prev value delta
            else Hashtbl.replace view key value
        | _ -> ())
      o.Runner.o_events;
    match !bad with
    | Some _ as f -> f
    | None ->
        let tables = o.Runner.o_tables in
        List.fold_left
          (fun acc (ns : Runner.node_state) ->
            match acc with
            | Some _ -> acc
            | None ->
                List.fold_left
                  (fun acc (cname, value, _enabled) ->
                    match acc with
                    | Some _ -> acc
                    | None -> (
                        match Tables.counter_by_name tables cname with
                        | None -> None
                        | Some centry ->
                            let expected =
                              Option.value
                                (Hashtbl.find_opt view
                                   (ns.Runner.ns_name, centry.Tables.cid))
                                ~default:0
                            in
                            if value <> expected then
                              fail "counter_consistency"
                                "node %s counter %s ends at %d but its recorded deltas sum to %d"
                                ns.Runner.ns_name cname value expected
                            else None))
                  None ns.Runner.ns_counters)
          None o.Runner.o_nodes
  end

(* --- reports_recorded --- *)

let check_reports (o : Runner.outcome) =
  match o.Runner.o_result with
  | Error _ -> None
  | Ok result ->
      if o.Runner.o_truncated then None
      else begin
        let stop_recorded =
          List.exists
            (fun (e : Event.t) ->
              match e.Event.body with
              | Event.Report_raised { rule = None; _ } -> true
              | _ -> false)
            o.Runner.o_events
        in
        let node_name nid =
          let nodes = o.Runner.o_tables.Tables.nodes in
          if nid >= 0 && nid < Array.length nodes then nodes.(nid).Tables.nname
          else "?"
        in
        match result.Scenario.outcome with
        | Scenario.Stopped when not stop_recorded ->
            fail "reports_recorded"
              "scenario Stopped but no STOP report event was recorded"
        | _ -> (
            match
              List.find_opt
                (fun (err : Scenario.error) ->
                  not
                    (List.exists
                       (fun (e : Event.t) ->
                         match e.Event.body with
                         | Event.Report_raised { nid; rule = Some r } ->
                             r = err.Scenario.err_rule
                             && node_name nid = err.Scenario.err_node
                         | _ -> false)
                       o.Runner.o_events))
                result.Scenario.errors
            with
            | Some err ->
                fail "reports_recorded"
                  "error (node %s, rule %d) has no matching Report_raised event"
                  err.Scenario.err_node err.Scenario.err_rule
            | None -> None)
      end

(* --- term_convergence --- *)

let check_terms (o : Runner.outcome) =
  if not o.Runner.o_drained then None
  else begin
    let tables = o.Runner.o_tables in
    let state_of nid =
      let name = tables.Tables.nodes.(nid).Tables.nname in
      List.find_opt
        (fun (ns : Runner.node_state) -> ns.Runner.ns_name = name)
        o.Runner.o_nodes
    in
    let bad = ref None in
    Array.iter
      (fun (term : Tables.term_entry) ->
        if !bad = None then
          match state_of term.Tables.eval_node with
          | Some owner when not owner.Runner.ns_failed ->
              let owner_view = owner.Runner.ns_terms.(term.Tables.tid) in
              List.iter
                (fun sub_nid ->
                  if !bad = None then
                    match state_of sub_nid with
                    | Some sub
                      when (not sub.Runner.ns_failed)
                           && sub.Runner.ns_terms.(term.Tables.tid)
                              <> owner_view ->
                        bad :=
                          fail "term_convergence"
                            "term %d: owner %s says %s but subscriber %s says %s"
                            term.Tables.tid owner.Runner.ns_name
                            (match owner_view with
                            | Some true -> "true"
                            | Some false -> "false"
                            | None -> "uninitialized")
                            sub.Runner.ns_name
                            (match sub.Runner.ns_terms.(term.Tables.tid) with
                            | Some true -> "true"
                            | Some false -> "false"
                            | None -> "uninitialized")
                    | _ -> ())
                term.Tables.status_subscribers
          | _ -> ())
      tables.Tables.terms;
    !bad
  end

(* --- conform_coverage --- *)

(* Conformance and coverage are two views of the same event stream: a
   packet EXPECT can only pass because a [Packet_classified] event of its
   filter exists, and vw-cover/1 counts exactly those events — so every
   passing packet EXPECT implies its filter's coverage count is positive.
   The [Conform_zero_cover] defect erases the coverage side, the
   self-check that a divergence between the two views is actually
   caught. *)
let check_conform ~defect (o : Runner.outcome) =
  match o.Runner.o_case.Gen.script.Vw_fsl.Ast.conform with
  | [] -> None
  | stmts -> (
      match Vw_fsl.Conform_ir.compile o.Runner.o_tables stmts with
      | Error errs ->
          fail "conform_coverage" "CONFORM section does not compile: %s"
            (String.concat "; " errs)
      | Ok ir ->
          (* the runner's workload starts one jiffy after scenario start on
             a fresh testbed, which is the anchor all windows measure from *)
          let checked =
            Vw_conform.Eval.run o.Runner.o_tables ~ir
              ~anchor:(Vw_sim.Simtime.ms 10) ~events:o.Runner.o_events
          in
          let cover =
            Vw_report.Coverage.analyze o.Runner.o_tables o.Runner.o_events
          in
          let matched fid =
            match defect with
            | Conform_zero_cover -> 0
            | _ ->
                List.fold_left
                  (fun acc (f : Vw_report.Coverage.filter_cov) ->
                    if f.Vw_report.Coverage.fid = fid then
                      f.Vw_report.Coverage.matched
                    else acc)
                  0 cover.Vw_report.Coverage.filters
          in
          List.fold_left
            (fun acc (c : Vw_conform.Eval.checked) ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match
                    ( c.Vw_conform.Eval.verdict,
                      c.Vw_conform.Eval.x.Vw_fsl.Conform_ir.x_kind )
                  with
                  | ( Vw_conform.Eval.Pass _,
                      Vw_fsl.Conform_ir.X_packet { xp_fid; _ } )
                    when matched xp_fid = 0 ->
                      fail "conform_coverage"
                        "EXPECT %d passed but coverage says filter %d never \
                         matched"
                        c.Vw_conform.Eval.x.Vw_fsl.Conform_ir.xid xp_fid
                  | _ -> None))
            None checked)

let check ~defect (o : Runner.outcome) =
  let ( <|> ) a b = match a with Some _ -> a | None -> b () in
  check_fixpoint o.Runner.o_case
  <|> (fun () -> check_classifier ~defect o)
  <|> (fun () -> check_codec ~defect o)
  <|> (fun () -> check_events ~defect o)
  <|> (fun () -> check_counters o)
  <|> (fun () -> check_reports o)
  <|> (fun () -> check_terms o)
  <|> (fun () -> check_conform ~defect o)
