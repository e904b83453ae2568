type outcome = Stopped | Timed_out | Ran_to_limit

type error = { err_node : string; err_rule : int }

type result = {
  scenario_name : string;
  outcome : outcome;
  errors : error list;
  duration : Vw_sim.Simtime.t;
  trace_length : int;
  events_recorded : int;
}

let passed r = r.errors = [] && r.outcome <> Timed_out

let outcome_to_string = function
  | Stopped -> "STOPPED"
  | Timed_out -> "TIMED_OUT"
  | Ran_to_limit -> "RAN_TO_LIMIT"

let pp_result ppf r =
  Format.fprintf ppf "scenario %s: %s after %a, %d errors, %d frames traced"
    r.scenario_name (outcome_to_string r.outcome) Vw_sim.Simtime.pp r.duration
    (List.length r.errors) r.trace_length

let prepare ?controller testbed ~script =
  (* via the compile cache: a campaign deploying the same script per trial
     compiles it once per process, not once per job *)
  match Vw_fsl.Compile_cache.parse_and_compile script with
  | Error e -> Error e
  | Ok tables -> (
      let controller_name =
        match controller with
        | Some n -> n
        | None -> tables.Vw_fsl.Tables.nodes.(0).Vw_fsl.Tables.nname
      in
      match Testbed.node testbed controller_name with
      | exception Not_found ->
          Error
            (Printf.sprintf "control node %S is not part of the testbed"
               controller_name)
      | control_node ->
          (* allow repeated runs on one testbed *)
          List.iter
            (fun n -> Vw_engine.Fie.reset (Testbed.fie n))
            (Testbed.nodes testbed);
          let ctl = Vw_engine.Controller.create (Testbed.fie control_node) in
          Ok (ctl, tables))

let deploy_only ?controller testbed ~script =
  match prepare ?controller testbed ~script with
  | Error e -> Error e
  | Ok (ctl, tables) -> (
      match Vw_engine.Controller.deploy ctl tables with
      | Error e -> Error e
      | Ok () ->
          (* let INIT frames propagate, then START *)
          let engine = Testbed.engine testbed in
          let start_at =
            Vw_sim.Simtime.(Vw_sim.Engine.now engine + Vw_sim.Simtime.ms 5)
          in
          Vw_sim.Engine.schedule_at engine ~time:start_at (fun () ->
              Vw_engine.Controller.start ctl);
          Ok (ctl, tables))

let run ?controller ?(max_duration = Vw_sim.Simtime.sec 60.0)
    ?(workload = fun _ -> ()) testbed ~script =
  match deploy_only ?controller testbed ~script with
  | Error e -> Error e
  | Ok (ctl, tables) ->
      let engine = Testbed.engine testbed in
      let t0 = Vw_sim.Engine.now engine in
      let outcome = ref Ran_to_limit in
      Vw_engine.Controller.on_stop ctl (fun () ->
          outcome := Stopped;
          Vw_sim.Engine.stop engine);
      (* workload starts shortly after START has reached everyone *)
      Vw_sim.Engine.schedule_at engine
        ~time:Vw_sim.Simtime.(t0 + Vw_sim.Simtime.ms 10)
        (fun () -> workload testbed);
      (* inactivity watchdog, per the scenario header *)
      (match tables.Vw_fsl.Tables.inactivity_timeout with
      | None -> ()
      | Some timeout ->
          let check_every = max (timeout / 4) (Vw_sim.Simtime.ms 10) in
          let rec check () =
            let last_activity =
              List.fold_left
                (fun acc n ->
                  match Vw_engine.Fie.last_match_time (Testbed.fie n) with
                  | Some t -> max acc t
                  | None -> acc)
                t0 (Testbed.nodes testbed)
            in
            let now = Vw_sim.Engine.now engine in
            if Vw_sim.Simtime.(now - last_activity) >= timeout then begin
              outcome := Timed_out;
              Vw_sim.Engine.stop engine
            end
            else
              Vw_sim.Engine.schedule_after engine ~delay:check_every check
          in
          Vw_sim.Engine.schedule_after engine ~delay:check_every check);
      Vw_sim.Engine.run engine ~until:Vw_sim.Simtime.(t0 + max_duration);
      let errors =
        List.map
          (fun (nid, rule) ->
            { err_node = Vw_fsl.Tables.node_name tables nid; err_rule = rule })
          (Vw_engine.Controller.errors ctl)
      in
      Ok
        {
          scenario_name = tables.Vw_fsl.Tables.scenario_name;
          outcome = !outcome;
          errors;
          duration = Vw_sim.Simtime.(Vw_sim.Engine.now engine - t0);
          trace_length = Trace.length (Testbed.trace testbed);
          events_recorded = Testbed.events_recorded testbed;
        }
