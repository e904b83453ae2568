module Ir = Vw_fsl.Conform_ir
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Host = Vw_stack.Host

type case_result = {
  c_name : string;
  c_checked : Eval.checked list;
  c_scenario : Scenario.result;
  c_truncated : int;
  c_events : Vw_obs.Event.t list;
  c_tables : Vw_fsl.Tables.t;
}

let case_ok r = List.for_all (fun (c : Eval.checked) -> Eval.ok c.verdict) r.c_checked

let default_capacity = 65536

let schedule_injections tables testbed (ir : Ir.t) =
  List.iter
    (fun (inj : Ir.injection) ->
      let from_name = tables.Vw_fsl.Tables.nodes.(inj.Ir.in_from).Vw_fsl.Tables.nname in
      let host = Testbed.host (Testbed.node testbed from_name) in
      let frame = Vw_net.Eth.of_bytes inj.Ir.in_frame in
      ignore
        (Host.set_timer host ~granularity:`Fine ~delay:inj.Ir.in_at (fun () ->
             Host.send_frame host frame)))
    ir.Ir.injections

(* Stamp the verdicts into the first node's flight recorder, so exported
   event logs carry the conformance outcome, and return the run's events
   with the stamps: [events], the run's events before stamping, then the
   stamps, which hold the newest seqs. When stamping overwrote retained
   events, the rings are decoded again. *)
let stamp_verdicts testbed (checked : Eval.checked list) ~events =
  match Testbed.nodes testbed with
  | [] -> events
  | n :: _ -> (
      match Testbed.recorder testbed (Testbed.name n) with
      | None -> events
      | Some rc ->
          let dropped = Vw_obs.Recorder.dropped rc in
          List.iter
            (fun (c : Eval.checked) ->
              ignore
                (Vw_obs.Recorder.emit_root rc
                   (Vw_obs.Event.Expect_checked
                      { xid = c.Eval.x.Ir.xid; ok = Eval.ok c.Eval.verdict })))
            checked;
          if Vw_obs.Recorder.dropped rc = dropped then
            events @ Vw_obs.Recorder.newest rc (List.length checked)
          else Testbed.events testbed)

let run ?config ?max_duration ?(capacity = default_capacity)
    ?(workload = fun _ -> ()) ~name ~source () =
  match Vw_fsl.Parser.parse source with
  | Error e -> Error [ e ]
  | Ok script -> (
      match Vw_fsl.Compile.compile script with
      | Error errs -> Error errs
      | Ok tables -> (
          match Ir.compile tables script.Vw_fsl.Ast.conform with
          | Error errs -> Error errs
          | Ok ir -> (
              (* verdicts come from the flight recorder: nothing on this
                 path reads the frame capture, so keep none *)
              let config =
                {
                  (Option.value config ~default:Testbed.default_config) with
                  trace_capacity = 1;
                }
              in
              let testbed = Testbed.of_node_table ~config tables in
              Testbed.enable_observability ~capacity testbed;
              let engine = Testbed.engine testbed in
              (* all CONFORM times are relative to the instant the workload
                 starts — capture it inside the workload itself *)
              let anchor = ref Vw_sim.Simtime.zero in
              let wrapped tb =
                anchor := Vw_sim.Engine.now engine;
                schedule_injections tables tb ir;
                workload tb
              in
              match
                Scenario.run testbed ~script:source ?max_duration
                  ~workload:wrapped
              with
              | Error e -> Error [ e ]
              | Ok result ->
                  let events = Testbed.events testbed in
                  let checked =
                    Eval.run tables ~ir ~anchor:!anchor ~events
                  in
                  let events = stamp_verdicts testbed checked ~events in
                  Ok
                    {
                      c_name = name;
                      c_checked = checked;
                      c_scenario = result;
                      c_truncated = Testbed.events_truncated testbed;
                      c_events = events;
                      c_tables = tables;
                    })))
