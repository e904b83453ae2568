(* vwctl — the VirtualWire command-line front-end.

   This plays the role of the paper's "programming tool ... active on the
   control node [to which] the user ... submits [a script] through a
   command line interface" (Section 5.1), driving simulated testbeds:

     vwctl check   script.fsl            parse + compile, report problems
     vwctl parse   script.fsl            dump the six tables (Figure 3)
     vwctl run     script.fsl [opts]     build the testbed and run the scenario
     vwctl explain script.fsl --rule N   why did rule N fire (or not)?
     vwctl cover   script.fsl [opts]     FSL coverage: which rules/filters fired
     vwctl report  script.fsl [opts]     self-contained HTML run report
     vwctl fuzz    [--runs N --seed S]   property-based scenario fuzzing
     vwctl events  export FILE [-o OUT]  convert event logs (binary <-> JSONL)
     vwctl script  figure5|figure6       print the paper's embedded scripts

   cover and report also work offline from a saved `vwctl run --events`
   log (--events FILE) in either schema — vw-events/1 JSONL or the
   vw-events/2 binary flight-recorder format (--events-format bin),
   auto-detected — making both real interchange formats.

   Wherever a SCRIPT is expected, the embedded names figure5, figure6 and
   quickstart work as well as file paths. *)

open Cmdliner
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Trace = Vw_core.Trace
module Explain = Vw_core.Explain
module Metrics = Vw_obs.Metrics
module Event = Vw_obs.Event
module Host = Vw_stack.Host
module Tcp = Vw_tcp.Tcp
module Rether = Vw_rether.Rether

(* Every file the CLI writes goes through here, so an unwritable path is
   an [Error] the command reports as "error: ..." with exit 1 — never an
   uncaught [Sys_error] once the work is done. [None] writes nothing. *)
let write_file path write =
  match path with
  | None -> Ok ()
  | Some path -> (
      match
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            write oc;
            close_out oc)
      with
      | () -> Ok ()
      | exception Sys_error e -> Error e)

let write_error e =
  Printf.eprintf "error: %s\n" e;
  1

(* a file's whole contents; an unreadable path (missing, a directory)
   is an [Error] *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error e -> Error e

(* a SCRIPT argument: an embedded scenario by name, else a file path *)
let load_script path =
  match path with
  | "figure5" -> Ok Vw_scripts.tcp_ss_ca
  | "figure6" -> Ok Vw_scripts.rether_failure
  | "quickstart" -> Ok Vw_scripts.udp_drop_dup
  | path -> read_file path

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* --- check --- *)

let check_cmd =
  let script_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCRIPT")
  in
  let run script_path =
    match load_script script_path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok src -> (
        match Vw_fsl.Compile.parse_and_compile src with
        | Ok tables ->
            Printf.printf
              "%s: OK (%d filters, %d nodes, %d counters, %d terms, %d \
               conditions, %d actions)\n"
              script_path
              (Array.length tables.Vw_fsl.Tables.filters)
              (Array.length tables.Vw_fsl.Tables.nodes)
              (Array.length tables.Vw_fsl.Tables.counters)
              (Array.length tables.Vw_fsl.Tables.terms)
              (Array.length tables.Vw_fsl.Tables.conds)
              (Array.length tables.Vw_fsl.Tables.actions);
            0
        | Error e ->
            Printf.eprintf "%s: %s\n" script_path e;
            1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and statically check an FSL script.")
    Term.(const run $ script_arg)

(* --- parse --- *)

let parse_cmd =
  let script_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCRIPT")
  in
  let run script_path =
    match load_script script_path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok src -> (
        match Vw_fsl.Compile.parse_and_compile src with
        | Ok tables ->
            Format.printf "%a@." Vw_fsl.Tables.pp tables;
            0
        | Error e ->
            Printf.eprintf "%s: %s\n" script_path e;
            1)
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:
         "Compile an FSL script and dump the six tables the control node \
          would ship to every FIE/FAE.")
    Term.(const run $ script_arg)

(* --- run --- *)

(* workload kinds and the scripts' `# vwctl:` directives live in
   Vw_conform.Workloads so `dune runtest` can replay the conformance
   corpus with the same traffic the CLI drives *)
module Workloads = Vw_conform.Workloads

let workload_conv =
  let parse s =
    match Workloads.kind_of_string s with
    | Ok k -> Ok k
    | Error e -> Error (`Msg e)
  in
  let print ppf k = Format.pp_print_string ppf (Workloads.kind_to_string k) in
  Arg.conv (parse, print)

let make_workload = Workloads.make

(* workload/run flags shared by run, explain, cover and report *)

let script_pos_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCRIPT")

let workload_arg =
  Arg.(
    value
    & opt workload_conv Workloads.Tcp_stream
    & info [ "w"; "workload" ] ~docv:"KIND"
        ~doc:
          "Traffic to drive through the testbed: $(b,tcp-stream), \
           $(b,udp-ping), $(b,udp-blast) (one-way UDP bursts injected at \
           the sender's engine), $(b,rether) (token ring plus a TCP \
           stream), or $(b,idle).")

let bytes_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "b"; "bytes" ] ~docv:"N"
        ~doc:"Payload volume for the workload (bytes, or ping count * 64).")

let duration_arg =
  Arg.(
    value & opt float 60.0
    & info [ "d"; "max-duration" ] ~docv:"SECONDS"
        ~doc:"Simulated-time budget for the scenario.")

(* counts that size something (--events-capacity, --runs, --repeat): 0 or
   a negative value is a usage error, exit 124 like any malformed flag *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let rll_arg =
  Arg.(
    value & flag
    & info [ "rll" ] ~doc:"Install the Reliable Link Layer on every node.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

(* Two ring-capacity policies: the always-on recorder (run --stats,
   --metrics) keeps a small cache-resident ring for engine-speed
   recording; anything that consumes the event history itself (--events,
   --trace-json, explain/cover/report) defaults to a larger ring because
   evicted events silently disappear from the analysis. *)
let default_events_capacity = 16384
let analysis_events_capacity = 65536

let events_capacity_arg =
  Arg.(
    value & opt (some positive_int) None
    & info [ "events-capacity" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Per-node flight-recorder ring capacity. Beyond it the oldest \
              events are overwritten, which breaks causal chains; a warning \
              is printed when that happens. Larger rings trade recording \
              speed (cache locality) for retention. Default %d, or %d when \
              the event history itself is consumed (--events, --trace-json, \
              and the explain/cover/report commands)."
             default_events_capacity analysis_events_capacity))

let events_format_arg =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("bin", `Bin) ]) `Json
    & info [ "events-format" ] ~docv:"FMT"
        ~doc:
          "Event-log format to write: $(b,json) is vw-events/1 JSON Lines \
           (the default — what jq and existing consumers read), $(b,bin) \
           the compact vw-events/2 binary flight-recorder format (convert \
           later with $(b,vwctl events export)). Readers auto-detect, so \
           analysis commands accept either.")

(* One writer for the vw-events/1 stream, shared by `run --events` and
   `events export` — the two must stay byte-identical for the same run. *)
let write_events_jsonl oc ~scenario ~recorded ~dropped events =
  Printf.fprintf oc
    "{\"schema\":\"vw-events/1\",\"scenario\":%S,\"recorded\":%d,\"dropped\":%d}\n"
    scenario recorded dropped;
  List.iter
    (fun e ->
      output_string oc (Event.to_json e);
      output_char oc '\n')
    events

(* --- the shared campaign option block ---

   Every campaign command (run --repeat, suite, fuzz) takes the same
   --jobs/--chunk/--seed/--stats-json block through this one term, so flag
   names, defaults, clamping, semantics and exit codes cannot drift
   between subcommands. --jobs validation lives here and nowhere else:
   values below 1 clamp up, values above the machine's recommended domain
   count clamp down, each with a stderr warning (stdout stays reserved for
   deterministic campaign output). *)

type campaign_opts = {
  jobs : int;
  chunk : int option;
  seed : int option;
  stats_json : bool;
  journal : string option;
}

let campaign_opts_term =
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the campaign (default: the machine's \
             recommended domain count, which is also the cap — higher \
             values clamp with a warning). Campaign output is \
             byte-identical at every $(docv); only the wall-clock time \
             changes.")
  in
  let chunk_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chunk" ] ~docv:"N"
          ~doc:
            "Jobs each worker domain claims from the queue at a time \
             (default: auto-tuned from campaign size and $(b,--jobs)). \
             Larger chunks amortize scheduling overhead; smaller ones \
             balance load. Pure scheduling knob — output is identical at \
             any value.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Base seed for the campaign; case/trial $(i,i) uses S+i. \
             Defaults to \\$VW_SEED, else 42.")
  in
  let stats_json_arg =
    Arg.(
      value & flag
      & info [ "stats-json" ]
          ~doc:
            "Print a machine-readable summary to stdout as JSON; the human \
             report moves to stderr. Campaigns emit schema vw-campaign/1; \
             a single $(b,run) emits its metrics registry (vw-metrics/1).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append a structured record of every failure to $(docv) \
             (vw-failures/1 JSON Lines — the failure journal that $(b,vwctl \
             triage) clusters). Records carry no wall-clock fields and are \
             appended after index-order reduction, so the journal is \
             byte-identical at every $(b,--jobs) level.")
  in
  let v jobs chunk seed stats_json journal =
    let recommended = Vw_exec.Executor.default_jobs () in
    let jobs =
      match jobs with
      | None -> recommended
      | Some n when n < 1 ->
          Printf.eprintf "warning: --jobs %d clamped to 1\n%!" n;
          1
      | Some n when n > recommended ->
          Printf.eprintf
            "warning: --jobs %d exceeds this machine's recommended domain \
             count; clamped to %d\n\
             %!"
            n recommended;
          recommended
      | Some n -> n
    in
    let chunk =
      match chunk with
      | Some c when c < 1 ->
          Printf.eprintf "warning: --chunk %d clamped to 1\n%!" c;
          Some 1
      | c -> c
    in
    { jobs; chunk; seed; stats_json; journal }
  in
  Term.(
    const v $ jobs_arg $ chunk_arg $ seed_arg $ stats_json_arg $ journal_arg)

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* compile SCRIPT's tables, build an observed testbed and run the scenario;
   the common front half of run/explain/cover/report *)
let run_live ~tables ~src ~workload ~bytes ~duration ~rll ~capacity =
  let config =
    {
      Testbed.default_config with
      rll = (if rll then Some Vw_rll.Rll.default_config else None);
    }
  in
  let testbed = Testbed.of_node_table ~config tables in
  Testbed.enable_observability ~capacity testbed;
  match
    Scenario.run testbed ~script:src
      ~max_duration:(Vw_sim.Simtime.sec duration)
      ~workload:(make_workload workload ~bytes)
  with
  | Error e -> Error e
  | Ok result -> Ok (testbed, result)

(* a saturated ring silently amputates causal chains — say so *)
let warn_truncation testbed ~capacity =
  let truncated = Testbed.events_truncated testbed in
  if truncated > 0 then
    Printf.eprintf
      "warning: %d flight-recorder ring(s) wrapped (%d events dropped); \
       causal chains and offline analyses may be incomplete — raise \
       --events-capacity (currently %d)\n\
       %!"
      truncated
      (Testbed.events_dropped testbed)
      capacity

(* vwctl run --repeat N: the same scenario as a campaign of N trials, trial
   i on a testbed seeded S+i. Trials come back from the executor in index
   order, so --jobs does not change the output. *)
let run_repeat_campaign ~tables ~src ~script_path ~workload ~bytes ~duration
    ~rll ~opts ~repeat =
  let base_seed =
    match opts.seed with Some s -> s | None -> Vw_util.Prng.run_seed ()
  in
  (* the trial's seed, its report text and whether it passed *)
  let trial i =
    let seed = (base_seed + i) land max_int in
    let config =
      {
        Testbed.default_config with
        seed;
        rll = (if rll then Some Vw_rll.Rll.default_config else None);
      }
    in
    let testbed = Testbed.of_node_table ~config tables in
    match
      Scenario.run testbed ~script:src
        ~max_duration:(Vw_sim.Simtime.sec duration)
        ~workload:(make_workload workload ~bytes)
    with
    | Error e -> (seed, "error: " ^ e ^ "\n", false)
    | Ok result ->
        let b = Buffer.create 128 in
        let ppf = Format.formatter_of_buffer b in
        Format.fprintf ppf "%a@." Scenario.pp_result result;
        List.iter
          (fun { Scenario.err_node; err_rule } ->
            Format.fprintf ppf "  FLAG_ERROR from %s (rule %d)@." err_node
              err_rule)
          result.Scenario.errors;
        Format.pp_print_flush ppf ();
        (seed, Buffer.contents b, Scenario.passed result)
  in
  let human =
    if opts.stats_json then Format.err_formatter else Format.std_formatter
  in
  let rows =
    Vw_exec.Executor.map ~jobs:opts.jobs ?chunk:opts.chunk repeat trial
    |> List.mapi (fun i r ->
           match r with
           | Ok (seed, detail, ok) -> (i, seed, detail, ok, None)
           | Error msg ->
               ( i,
                 (base_seed + i) land max_int,
                 "worker crashed: " ^ msg ^ "\n",
                 false,
                 Some msg ))
  in
  let entries =
    List.map
      (fun (i, seed, detail, ok, _) ->
        Format.fprintf human "trial %d (seed %d): %s" i seed detail;
        Vw_report.Campaign.entry
          ~name:(Printf.sprintf "trial-%d" i)
          ~ok ~detail:(first_line detail) ())
      rows
  in
  (match opts.journal with
  | None -> ()
  | Some path -> (
      let digest = Vw_report.Journal.digest_of_tables tables in
      let records =
        List.filter_map
          (fun (i, seed, detail, ok, crash) ->
            if ok then None
            else
              let oracle, det =
                match crash with
                | Some msg ->
                    ("worker_crash", Vw_report.Journal.exn_constructor msg)
                | None -> ("scenario", first_line detail)
              in
              Some
                (Vw_report.Journal.v ~run_seed:base_seed ~tables_digest:digest
                   ~command:"run"
                   ~case:(Printf.sprintf "trial-%d" i)
                   ~index:i ~oracle ~seed ~detail:det ()))
          rows
      in
      match Vw_report.Journal.append path records with
      | Ok () -> ()
      | Error e -> Printf.eprintf "warning: journal %s: %s\n%!" path e));
  let campaign = Vw_report.Campaign.v ~command:"run" entries in
  Format.fprintf human "repeat: %d/%d passed@."
    (Vw_report.Campaign.passed campaign)
    repeat;
  Format.pp_print_flush human ();
  if opts.stats_json then
    print_string
      (Vw_report.Campaign.summary_json
         ~extra:
           [
             ("script", Printf.sprintf "%S" script_path);
             ("seed", string_of_int base_seed);
             ("repeat", string_of_int repeat);
           ]
         campaign);
  if Vw_report.Campaign.ok campaign then 0 else 2

let run_cmd =
  let script_arg = script_pos_arg in
  let trace_arg =
    Arg.(
      value & opt int 0
      & info [ "t"; "trace" ] ~docv:"N"
          ~doc:"Print the last $(docv) captured frames after the run.")
  in
  let counters_arg =
    Arg.(
      value & flag
      & info [ "c"; "counters" ]
          ~doc:"Dump every node's FAE counters after the run.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Dump every engine-statistics field for every node after the \
             run, sourced from the metrics registry.")
  in
  let repeat_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Run the scenario $(docv) times as a campaign, trial $(i,i) \
             with testbed seed S+i (see $(b,--seed)). Incompatible with the \
             single-run artifact flags ($(b,--events), $(b,--metrics), \
             $(b,--pcap), $(b,--trace-json), $(b,--trace), $(b,--counters), \
             $(b,--stats)). Exit 0 when every trial passes, 2 otherwise.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Enable the flight recorder and write the merged event log to \
             $(docv) — JSON Lines (schema vw-events/1; first line is a \
             header object) by default, or vw-events/2 binary with \
             $(b,--events-format bin).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry to $(docv) as JSON (schema \
             vw-metrics/1).")
  in
  let pcap_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pcap" ] ~docv:"FILE"
          ~doc:
            "Write the captured trace to $(docv) as a classic libpcap file \
             (LINKTYPE_ETHERNET), readable by tcpdump and wireshark.")
  in
  let trace_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:
            "Write packet-lifecycle spans to $(docv) as Chrome trace-event \
             JSON, viewable in Perfetto or chrome://tracing (one process \
             per node, one complete event per causal context, flow arrows \
             for control hops).")
  in
  let run script_path workload bytes duration rll trace_n verbose
      counters show_stats opts repeat events_out events_format metrics_out
      pcap_out trace_json_out events_capacity =
    setup_logs verbose;
    let events_capacity =
      match events_capacity with
      | Some c -> c
      | None ->
          if events_out <> None || trace_json_out <> None then
            analysis_events_capacity
          else default_events_capacity
    in
    let stats_json = opts.stats_json in
    match load_script script_path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok src -> (
        (* the cache makes this validation compile the campaign's one miss:
           every --repeat trial's own deploy then hits *)
        match Vw_fsl.Compile_cache.parse_and_compile src with
        | Error e ->
            Printf.eprintf "%s: %s\n" script_path e;
            1
        | Ok tables when repeat > 1 ->
            if
              trace_n > 0 || counters || show_stats || events_out <> None
              || metrics_out <> None || pcap_out <> None
              || trace_json_out <> None
            then begin
              Printf.eprintf
                "error: --repeat is a campaign; the single-run artifact \
                 flags (--events, --metrics, --pcap, --trace-json, --trace, \
                 --counters, --stats) do not apply\n";
              1
            end
            else
              run_repeat_campaign ~tables ~src ~script_path ~workload ~bytes
                ~duration ~rll ~opts ~repeat
        | Ok tables -> (
            let config =
              {
                Testbed.default_config with
                rll = (if rll then Some Vw_rll.Rll.default_config else None);
              }
            in
            let config =
              match opts.seed with
              | Some seed -> { config with seed }
              | None -> config
            in
            let testbed = Testbed.of_node_table ~config tables in
            let need_obs =
              show_stats || stats_json || events_out <> None
              || metrics_out <> None || trace_json_out <> None
            in
            if need_obs then
              Testbed.enable_observability ~capacity:events_capacity testbed;
            match
              Scenario.run testbed ~script:src
                ~max_duration:(Vw_sim.Simtime.sec duration)
                ~workload:(make_workload workload ~bytes)
            with
            | Error e ->
                Printf.eprintf "error: %s\n" e;
                1
            | Ok result ->
                (* with --stats-json, stdout is reserved for the JSON *)
                let human =
                  if stats_json then Format.err_formatter
                  else Format.std_formatter
                in
                Format.fprintf human "%a@." Scenario.pp_result result;
                List.iter
                  (fun { Scenario.err_node; err_rule } ->
                    Format.fprintf human "  FLAG_ERROR from %s (rule %d)@."
                      err_node err_rule)
                  result.Scenario.errors;
                if counters then
                  List.iter
                    (fun node ->
                      match
                        Vw_engine.Fie.counters (Testbed.fie node)
                      with
                      | [] -> ()
                      | cs ->
                          Printf.printf "counters at %s:\n" (Testbed.name node);
                          List.iter
                            (fun (name, value, enabled) ->
                              Printf.printf "  %-24s %8d%s\n" name value
                                (if enabled then "" else "  (disabled)"))
                            cs)
                    (Testbed.nodes testbed);
                (* observability outputs, all fed from one registry export *)
                let mx = Testbed.metrics testbed in
                (match (show_stats, mx) with
                | true, Some mx ->
                    (* every stats field, per node, via the registry *)
                    List.iter
                      (fun node ->
                        let nname = Testbed.name node in
                        Printf.printf "engine stats at %s:\n" nname;
                        List.iter
                          (fun (field, _) ->
                            let key =
                              Printf.sprintf "node.%s.%s" nname field
                            in
                            Printf.printf "  %-28s %10d\n" field
                              (Metrics.value (Metrics.counter mx key)))
                          (Vw_engine.Fie.stats_fields
                             (Vw_engine.Fie.stats (Testbed.fie node))))
                      (Testbed.nodes testbed)
                | _ -> ());
                (match (stats_json, mx) with
                | true, Some mx -> print_string (Metrics.to_json mx)
                | _ -> ());
                let written =
                  let ( let* ) = Result.bind in
                  let* () =
                    write_file metrics_out (fun oc ->
                        Option.iter
                          (fun mx -> output_string oc (Metrics.to_json mx))
                          mx)
                  in
                  let* () =
                    write_file events_out (fun oc ->
                        match events_format with
                        | `Json ->
                            write_events_jsonl oc
                              ~scenario:result.Scenario.scenario_name
                              ~recorded:(Testbed.events_recorded testbed)
                              ~dropped:(Testbed.events_dropped testbed)
                              (Testbed.events testbed)
                        | `Bin ->
                            Option.iter (output_string oc)
                              (Testbed.events_binary testbed
                                 ~scenario:result.Scenario.scenario_name))
                  in
                  let* () =
                    write_file trace_json_out (fun oc ->
                        output_string oc
                          (Vw_report.Spans.to_chrome_json tables
                             (Testbed.events testbed)))
                  in
                  write_file pcap_out (Trace.to_pcap (Testbed.trace testbed))
                in
                match written with
                | Error e -> write_error e
                | Ok () ->
                    if need_obs then
                      warn_truncation testbed ~capacity:events_capacity;
                    if trace_n > 0 then begin
                      let entries = Trace.entries (Testbed.trace testbed) in
                      let total = List.length entries in
                      Printf.printf "--- last %d of %d captured frames ---\n"
                        (min trace_n total) total;
                      List.iteri
                        (fun i e ->
                          if i >= total - trace_n then
                            Format.printf "%a@." Trace.pp_entry e)
                        entries
                    end;
                    if Scenario.passed result then 0 else 2))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Compile a script, build a simulated testbed from its node table, \
          deploy over the control plane and run the scenario.")
    Term.(
      const run $ script_arg $ workload_arg $ bytes_arg $ duration_arg
      $ rll_arg $ trace_arg $ verbose_arg $ counters_arg $ stats_arg
      $ campaign_opts_term $ repeat_arg $ events_arg
      $ events_format_arg $ metrics_arg $ pcap_arg $ trace_json_arg
      $ events_capacity_arg)

(* --- explain --- *)

let explain_cmd =
  let rule_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "rule" ] ~docv:"N"
          ~doc:
            "The rule to explain, counting the script's rules from 0 in \
             source order.")
  in
  let run script_path rule workload bytes duration rll verbose capacity =
    setup_logs verbose;
    let capacity = Option.value capacity ~default:analysis_events_capacity in
    match load_script script_path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok src -> (
        match Vw_fsl.Compile.parse_and_compile src with
        | Error e ->
            Printf.eprintf "%s: %s\n" script_path e;
            1
        | Ok tables ->
            let n_rules = Explain.num_rules tables in
            if rule < 0 || rule >= n_rules then begin
              Printf.eprintf "error: no rule %d (script has rules 0..%d)\n"
                rule (n_rules - 1);
              1
            end
            else begin
              match
                run_live ~tables ~src ~workload ~bytes ~duration ~rll
                  ~capacity
              with
              | Error e ->
                  Printf.eprintf "error: %s\n" e;
                  1
              | Ok (testbed, result) ->
                  Format.printf "%a@." Scenario.pp_result result;
                  warn_truncation testbed ~capacity;
                  let analysis =
                    Explain.analyze tables (Testbed.events testbed)
                  in
                  Format.printf "%a"
                    (Explain.pp_verdict tables ~rule)
                    (Explain.explain analysis ~rule);
                  0
            end)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run a scenario with the flight recorder on, then print the causal \
          chain that made rule $(b,N) fire — or, if it never fired, the \
          furthest pipeline stage its dependencies reached.")
    Term.(
      const run $ script_pos_arg $ rule_arg $ workload_arg $ bytes_arg
      $ duration_arg $ rll_arg $ verbose_arg $ events_capacity_arg)

(* --- cover / report: the run-analysis layer (lib/report) --- *)

(* events for an analysis command: a saved vw-events/1 JSONL file when
   --events is given, else a fresh observed run of the scenario *)
let analysis_events ~tables ~src ~events_in ~workload ~bytes ~duration ~rll
    ~capacity =
  match events_in with
  | Some path ->
      Result.map
        (fun (_header, events) -> (events, None))
        (Vw_report.Events_io.load path)
  | None -> (
      match run_live ~tables ~src ~workload ~bytes ~duration ~rll ~capacity with
      | Error e -> Error e
      | Ok (testbed, result) ->
          warn_truncation testbed ~capacity;
          Ok (Testbed.events testbed, Some (testbed, result)))

let offline_events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Analyze the saved event log in $(docv) (written by $(b,vwctl run \
           --events); vw-events/1 JSONL or vw-events/2 binary, \
           auto-detected) instead of running the scenario.")

let cover_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the coverage report as JSON (schema vw-cover/1).")
  in
  let fail_under_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-under" ] ~docv:"PCT"
          ~doc:
            "Exit with status 3 when rule coverage (fired rules as a \
             percentage of all rules) is below $(docv).")
  in
  let run script_path events_in json_out fail_under workload bytes duration
      rll verbose capacity =
    setup_logs verbose;
    let capacity = Option.value capacity ~default:analysis_events_capacity in
    match load_script script_path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok src -> (
        match Vw_fsl.Compile.parse_and_compile src with
        | Error e ->
            Printf.eprintf "%s: %s\n" script_path e;
            1
        | Ok tables -> (
            match
              analysis_events ~tables ~src ~events_in ~workload ~bytes
                ~duration ~rll ~capacity
            with
            | Error e ->
                Printf.eprintf "error: %s\n" e;
                1
            | Ok (events, _live) -> (
                let cover = Vw_report.Coverage.analyze tables events in
                if json_out then
                  print_string (Vw_report.Coverage.to_json cover)
                else Format.printf "%a" Vw_report.Coverage.pp cover;
                let pct = Vw_report.Coverage.coverage_pct cover in
                match fail_under with
                | Some threshold when pct < threshold ->
                    Printf.eprintf
                      "coverage %.1f%% is below the --fail-under threshold \
                       %.1f%%\n"
                      pct threshold;
                    3
                | _ -> 0)))
  in
  Cmd.v
    (Cmd.info "cover"
       ~doc:
         "FSL coverage: per rule/filter/counter/term, how often the run \
          exercised it — and for every never-fired rule, the furthest \
          pipeline stage its dependencies reached. Reads a saved --events \
          log or runs the scenario itself.")
    Term.(
      const run $ script_pos_arg $ offline_events_arg $ json_arg
      $ fail_under_arg $ workload_arg $ bytes_arg $ duration_arg $ rll_arg
      $ verbose_arg $ events_capacity_arg)

let report_cmd =
  let output_arg =
    Arg.(
      value & opt string "vw-report.html"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the HTML report.")
  in
  let metrics_in_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "With $(b,--events): read a saved vw-metrics/1 JSON file for \
             the histogram section (live runs use the run's own registry).")
  in
  let run script_path events_in metrics_in output workload bytes duration rll
      verbose capacity =
    setup_logs verbose;
    let capacity = Option.value capacity ~default:analysis_events_capacity in
    match load_script script_path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok src -> (
        match Vw_fsl.Compile.parse_and_compile src with
        | Error e ->
            Printf.eprintf "%s: %s\n" script_path e;
            1
        | Ok tables -> (
            match
              analysis_events ~tables ~src ~events_in ~workload ~bytes
                ~duration ~rll ~capacity
            with
            | Error e ->
                Printf.eprintf "error: %s\n" e;
                1
            | Ok (events, live) -> (
                let metrics_of_file path =
                  Result.bind (read_file path) Vw_report.Metrics_view.of_json
                in
                let metrics =
                  match (live, metrics_in) with
                  | Some (testbed, _), _ ->
                      Option.map Vw_report.Metrics_view.of_registry
                        (Testbed.metrics testbed)
                  | None, Some path -> (
                      match metrics_of_file path with
                      | Ok mv -> Some mv
                      | Error e ->
                          Printf.eprintf "warning: --metrics %s: %s\n" path e;
                          None)
                  | None, None -> None
                in
                let result = Option.map snd live in
                let html =
                  Vw_report.Html_report.render ~tables ~events ?metrics
                    ?result ()
                in
                match
                  write_file (Some output) (fun oc -> output_string oc html)
                with
                | Ok () ->
                    Printf.printf "wrote %s (%d events analyzed)\n" output
                      (List.length events);
                    0
                | Error e -> write_error e)))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Write a self-contained HTML run report: coverage table, per-node \
          event timeline, metrics histograms as inline SVG, and every \
          FLAG_ERROR with its reconstructed causal chain. Reads a saved \
          --events log or runs the scenario itself.")
    Term.(
      const run $ script_pos_arg $ offline_events_arg $ metrics_in_arg
      $ output_arg $ workload_arg $ bytes_arg $ duration_arg $ rll_arg
      $ verbose_arg $ events_capacity_arg)

(* --- suite --- *)

let directives_config = Workloads.directives_config

(* Load every case of [suite] or [conform] and parse its `# vwctl:`
   directives before any case runs: [Some (name, source, directives)] per
   path, or [None] after printing one "path: error" line per path that
   failed, so a broken invocation exits 1 without running anything. *)
let load_cases paths =
  let load path =
    match load_script path with
    | Error e -> Error (path, e)
    | Ok src -> (
        match Workloads.parse_directives src with
        | Ok d -> Ok (Filename.basename path, src, d)
        | Error e -> Error (path, e))
  in
  let loaded = List.map load paths in
  let errors =
    List.filter_map (function Error pe -> Some pe | Ok _ -> None) loaded
  in
  List.iter (fun (p, e) -> Printf.eprintf "%s: %s\n" p e) errors;
  if errors = [] then Some (List.filter_map Result.to_option loaded) else None

(* suite outcomes -> Campaign entries (+ per-case coverage when observed) *)
let suite_campaign ~with_cover (report : Vw_core.Suite.report) =
  let entries =
    List.map
      (fun (o : Vw_core.Suite.outcome) ->
        let cover =
          if with_cover then
            Option.map
              (fun tables ->
                Vw_report.Coverage.analyze tables o.Vw_core.Suite.o_events)
              o.Vw_core.Suite.o_tables
          else None
        in
        let href =
          Option.map (fun _ -> o.Vw_core.Suite.o_name ^ ".cover.json") cover
        in
        Vw_report.Campaign.entry ?cover ?href ~name:o.Vw_core.Suite.o_name
          ~ok:o.Vw_core.Suite.o_ok
          ~detail:(Vw_core.Suite.outcome_detail o)
          ())
      report.Vw_core.Suite.outcomes
  in
  Vw_report.Campaign.v ~command:"suite" entries

(* stops writing at the first file that fails and returns its error *)
let write_campaign_dir ?(failures = []) dir campaign ~summary =
  let status = ref (Ok ()) in
  let write name contents =
    if Result.is_ok !status then
      status :=
        write_file
          (Some (Filename.concat dir name))
          (fun oc -> output_string oc contents)
  in
  match if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with
  | exception Sys_error e -> Error e
  | () ->
      Vw_report.Campaign.iter_covers campaign (fun ~name cover ->
          write (name ^ ".cover.json") (Vw_report.Coverage.to_json cover));
      (match Vw_report.Campaign.coverage campaign with
      | Some cover ->
          write "campaign-cover.json" (Vw_report.Coverage.to_json cover)
      | None -> ());
      if failures <> [] then
        write "failures.jsonl"
          (String.concat "" (List.map Vw_report.Journal.to_json failures));
      write "campaign.json" summary;
      write "index.html" (Vw_report.Campaign.html_index campaign);
      !status

let suite_cmd =
  let dir_arg = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  let stop_arg =
    Arg.(value & flag & info [ "stop-on-failure" ] ~doc:"Stop at the first failing case.")
  in
  let campaign_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "campaign-out" ] ~docv:"DIR"
          ~doc:
            "Run with the flight recorder on and write the campaign \
             artifacts into $(docv): an HTML index, a vw-campaign/1 \
             summary, per-case vw-cover/1 coverage, the rolled-up campaign \
             coverage and (when cases failed) a failures.jsonl journal — \
             the directory layout $(b,vwctl compare) diffs.")
  in
  let run dir stop_on_failure opts campaign_out =
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".fsl")
      |> List.sort compare
    in
    if files = [] then begin
      Printf.eprintf "no .fsl files in %s\n" dir;
      1
    end
    else
      match load_cases (List.map (Filename.concat dir) files) with
      | None -> 1
      | Some loaded ->
          let cases =
            List.map
              (fun (name, src, (d : Workloads.directives)) ->
                Vw_core.Suite.case ?config:(directives_config d) ~name
                  ~script:src
                  ~max_duration:(Vw_sim.Simtime.sec d.d_duration)
                  ~expect:d.d_expect
                  ~workload:(make_workload d.d_workload ~bytes:d.d_bytes)
                  ())
              loaded
          in
          let observe = campaign_out <> None in
          let report =
            Vw_core.Suite.run ~jobs:opts.jobs ?chunk:opts.chunk ~observe
              ?seed:opts.seed ~stop_on_failure cases
          in
          (* journal records walk the report in case order — the same
             records at every --jobs level *)
          let base_seed =
            match opts.seed with Some s -> s | None -> Vw_util.Prng.run_seed ()
          in
          let failure_records =
            List.concat
              (List.mapi
                 (fun i (o : Vw_core.Suite.outcome) ->
                   if o.Vw_core.Suite.o_ok then []
                   else
                     let oracle =
                       match o.Vw_core.Suite.o_expected with
                       | `Pass -> "expect_pass"
                       | `Fail -> "expect_fail"
                     in
                     let sim_s =
                       match o.Vw_core.Suite.o_result with
                       | Ok r -> Some (Vw_sim.Simtime.to_sec r.Scenario.duration)
                       | Error _ -> None
                     in
                     let tables_digest =
                       match o.Vw_core.Suite.o_tables with
                       | Some t -> Vw_report.Journal.digest_of_tables t
                       | None -> ""
                     in
                     [
                       Vw_report.Journal.v ?sim_s ~tables_digest
                         ~run_seed:base_seed ~command:"suite"
                         ~case:o.Vw_core.Suite.o_name ~index:i ~oracle
                         ~seed:base_seed
                         ~detail:(Vw_core.Suite.outcome_detail o)
                         ();
                     ])
                 report.Vw_core.Suite.outcomes)
          in
          (match opts.journal with
          | None -> ()
          | Some path -> (
              match Vw_report.Journal.append path failure_records with
              | Ok () -> ()
              | Error e -> Printf.eprintf "warning: journal %s: %s\n%!" path e));
          let human =
            if opts.stats_json then Format.err_formatter else Format.std_formatter
          in
          Format.fprintf human "%a@." Vw_core.Suite.pp_report report;
          Format.pp_print_flush human ();
          let campaign = suite_campaign ~with_cover:observe report in
          let extra =
            ("dir", Printf.sprintf "%S" dir)
            ::
            (match opts.seed with
            | Some s -> [ ("seed", string_of_int s) ]
            | None -> [])
          in
          let summary = Vw_report.Campaign.summary_json ~extra campaign in
          if opts.stats_json then print_string summary;
          match campaign_out with
          | None -> if Vw_core.Suite.ok report then 0 else 2
          | Some out -> (
              match
                write_campaign_dir ~failures:failure_records out campaign ~summary
              with
              | Ok () -> if Vw_core.Suite.ok report then 0 else 2
              | Error e -> write_error e)
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Run every .fsl script in a directory as a regression suite, \
          sequentially or across --jobs domains (same output either way). \
          Scripts choose their workload with '# vwctl:' directive comments.")
    Term.(
      const run $ dir_arg $ stop_arg $ campaign_opts_term $ campaign_out_arg)

(* --- conform: INJECT/EXPECT conformance suites (lib/conform) --- *)

let conform_cmd =
  let scripts_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SCRIPT"
          ~doc:
            "Conformance scripts (.fsl with a CONFORM section) or \
             directories of them; directories expand to their .fsl files \
             in name order.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the vw-conform/1 summary to stdout as JSON; the human \
             report moves to stderr.")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:
            "Write a self-contained HTML conformance report to $(docv): a \
             verdict table per suite, failing expectations with their \
             furthest-stage diagnosis.")
  in
  let run paths json html opts capacity verbose =
    setup_logs verbose;
    let capacity =
      Option.value capacity ~default:Vw_conform.Driver.default_capacity
    in
    let expand p =
      if Sys.file_exists p && Sys.is_directory p then
        Sys.readdir p |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".fsl")
        |> List.sort compare
        |> List.map (Filename.concat p)
      else [ p ]
    in
    let files = List.concat_map expand paths in
    if files = [] then begin
      Printf.eprintf "no .fsl scripts found\n";
      1
    end
    else
      match load_cases files with
      | None -> 1
      | Some cases ->
          let base_seed =
            match opts.seed with Some s -> s | None -> Vw_util.Prng.run_seed ()
          in
          let run_case (name, src, d) =
            let config =
              {
                (Option.value (directives_config d)
                   ~default:Testbed.default_config)
                with
                seed = base_seed;
              }
            in
            Vw_conform.Driver.run ~config
              ~max_duration:(Vw_sim.Simtime.sec d.d_duration)
              ~capacity
              ~workload:(make_workload d.d_workload ~bytes:d.d_bytes)
              ~name ~source:src ()
          in
          (* results come back in case order: report cases, collect journal
             records — identical output at every --jobs level *)
          let results =
            let cases = Array.of_list cases in
            Vw_exec.Executor.map ~jobs:opts.jobs ?chunk:opts.chunk
              (Array.length cases) (fun i -> run_case cases.(i))
            |> List.mapi (fun i r ->
                   let name, _, _ = cases.(i) in
                   match r with
                   | Ok r -> (name, r)
                   | Error msg -> (name, Error [ "worker crashed: " ^ msg ]))
          in
          let report_cases =
            List.map
              (fun (name, r) ->
                match r with
                | Ok cr -> Vw_conform.Report.of_result cr
                | Error errs ->
                    {
                      Vw_conform.Report.cs_name = name;
                      cs_ok = false;
                      cs_outcome = String.concat "; " errs;
                      cs_truncated = false;
                      cs_expects = [];
                    })
              results
          in
          List.iter
            (fun c ->
              if c.Vw_conform.Report.cs_truncated then
                Printf.eprintf
                  "warning: %s: flight-recorder ring(s) wrapped; verdicts may \
                   be unsound — raise --events-capacity (currently %d)\n\
                   %!"
                  c.Vw_conform.Report.cs_name capacity)
            report_cases;
          (match opts.journal with
          | None -> ()
          | Some path -> (
              let records =
                List.concat
                  (List.mapi
                     (fun i (name, r) ->
                       match r with
                       | Error errs ->
                           [
                             Vw_report.Journal.v ~run_seed:base_seed
                               ~command:"conform" ~case:name ~index:i
                               ~oracle:"conform_error" ~seed:base_seed
                               ~detail:
                                 (first_line (String.concat "; " errs))
                               ();
                           ]
                       | Ok cr ->
                           let digest =
                             Vw_report.Journal.digest_of_tables
                               cr.Vw_conform.Driver.c_tables
                           in
                           List.filter_map
                             (fun (c : Vw_conform.Eval.checked) ->
                               if Vw_conform.Eval.ok c.Vw_conform.Eval.verdict
                               then None
                               else
                                 (* the oracle carries the expectation id, so
                                    signatures cluster by which EXPECT failed,
                                    never by timestamps in the diagnosis *)
                                 Some
                                   (Vw_report.Journal.v ~run_seed:base_seed
                                      ~tables_digest:digest ~command:"conform"
                                      ~case:name ~index:i
                                      ~oracle:
                                        (Printf.sprintf "expect_%d"
                                           c.Vw_conform.Eval.x
                                             .Vw_fsl.Conform_ir.xid)
                                      ~seed:base_seed
                                      ~detail:
                                        (Vw_conform.Eval.diagnosis
                                           c.Vw_conform.Eval.verdict)
                                      ()))
                             cr.Vw_conform.Driver.c_checked)
                     results)
              in
              match Vw_report.Journal.append path records with
              | Ok () -> ()
              | Error e -> Printf.eprintf "warning: journal %s: %s\n%!" path e));
          let human =
            if json then Format.err_formatter else Format.std_formatter
          in
          Format.fprintf human "%a" Vw_conform.Report.pp report_cases;
          Format.pp_print_flush human ();
          if json then print_string (Vw_conform.Report.summary_json report_cases);
          match
            write_file html (fun oc ->
                output_string oc
                  (Vw_report.Html_report.render_conform
                    (List.map
                       (fun c ->
                         {
                           Vw_report.Html_report.cc_name =
                             c.Vw_conform.Report.cs_name;
                           cc_ok = c.Vw_conform.Report.cs_ok;
                           cc_outcome = c.Vw_conform.Report.cs_outcome;
                           cc_expects =
                             List.map
                               (fun (x : Vw_conform.Report.xres) ->
                                 {
                                   Vw_report.Html_report.ce_label =
                                     x.Vw_conform.Report.xr_label;
                                   ce_status = x.Vw_conform.Report.xr_status;
                                   ce_at_ms = x.Vw_conform.Report.xr_at_ms;
                                   ce_diagnosis =
                                     x.Vw_conform.Report.xr_diagnosis;
                                 })
                               c.Vw_conform.Report.cs_expects;
                         })
                       report_cases)))
          with
          | Error e -> write_error e
          | Ok () ->
              Option.iter (Printf.eprintf "wrote %s\n%!") html;
              if Vw_conform.Report.ok report_cases then 0 else 2
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Run FSL conformance suites: scripts whose CONFORM section \
          INJECTs frames at scripted sim-times and EXPECTs packets or \
          node state within tolerances. Each script runs as a \
          deterministic scenario; failed expectations carry a \
          furthest-stage diagnosis (dropped by which rule, delivered \
          outside the window, or never generated). Output is \
          byte-identical at every --jobs level. Exit 2 when any \
          expectation fails.")
    Term.(
      const run $ scripts_arg $ json_arg $ html_arg $ campaign_opts_term
      $ events_capacity_arg $ verbose_arg)

(* --- fuzz: the property-based scenario fuzzer (lib/check) --- *)

let fuzz_cmd =
  let runs_arg =
    Arg.(
      value & opt positive_int 200
      & info [ "runs" ] ~docv:"N" ~doc:"Number of generated cases to run.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "On failure, delta-debug the case to a minimal script + \
             schedule that still fails the same oracle.")
  in
  let save_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save-failing" ] ~docv:"DIR"
          ~doc:
            "Write the failing case (and its minimized form) as replayable \
             .fsl files into $(docv).")
  in
  let defect_arg =
    let parse s =
      match Vw_check.Oracles.defect_of_string s with
      | Ok d -> Ok d
      | Error e -> Error (`Msg e)
    in
    let print ppf d =
      Format.pp_print_string ppf (Vw_check.Oracles.defect_to_string d)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Vw_check.Oracles.No_defect
      & info [ "defect" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Deliberately sabotage one invariant (self-check that the \
                oracles catch it): %s."
               (String.concat ", " Vw_check.Oracles.defect_names)))
  in
  let replay_arg =
    Arg.(
      value & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-run one saved reproducer (a file printed by a failing fuzz \
             run or written by --save-failing) instead of generating cases. \
             Its provenance header (oracle, run seed, case index) is \
             printed when present.")
  in
  let replay_dir_arg =
    Arg.(
      value & opt (some dir) None
      & info [ "replay-dir" ] ~docv:"DIR"
          ~doc:
            "Replay every .fsl reproducer in $(docv) in name order — how CI \
             replays the promoted regression corpus. Exit 2 if any still \
             fails, 1 if the directory holds no reproducers.")
  in
  let run runs opts shrink save_failing defect replay replay_dir =
    match (replay, replay_dir) with
    | Some _, Some _ ->
        Printf.eprintf "error: --replay and --replay-dir are exclusive\n";
        1
    | Some path, None -> (
        match
          Vw_check.Fuzz.replay ?journal:opts.journal ~defect ~shrink path
        with
        | Ok summary -> Vw_check.Fuzz.exit_code summary
        | Error e ->
            Printf.eprintf "%s\n" e;
            1)
    | None, Some dir -> (
        match
          Vw_check.Fuzz.replay_dir ?journal:opts.journal ~defect ~shrink dir
        with
        | Ok summary -> Vw_check.Fuzz.exit_code summary
        | Error e ->
            Printf.eprintf "%s\n" e;
            1)
    | None, None ->
        let seed =
          match opts.seed with Some s -> s | None -> Vw_util.Prng.run_seed ()
        in
        let cfg =
          {
            Vw_check.Fuzz.default_config with
            runs;
            seed;
            shrink;
            save_failing;
            defect;
            jobs = opts.jobs;
            chunk = opts.chunk;
            journal = opts.journal;
          }
        in
        let ppf =
          if opts.stats_json then Format.err_formatter
          else Format.std_formatter
        in
        match Vw_check.Fuzz.execute ~ppf cfg with
        | Error e -> write_error e
        | Ok summary ->
            if opts.stats_json then begin
              let found = summary.Vw_check.Fuzz.found in
              let entries =
                List.init summary.Vw_check.Fuzz.runs_done (fun i ->
                    let name = Printf.sprintf "case-%d" i in
                    match found with
                    | Some f when f.Vw_check.Fuzz.run_index = i ->
                        Vw_report.Campaign.entry ~name ~ok:false
                          ~detail:
                            (Printf.sprintf "%s: %s"
                               f.Vw_check.Fuzz.failure.Vw_check.Oracles.oracle
                               f.Vw_check.Fuzz.failure.Vw_check.Oracles.detail)
                          ()
                    | _ -> Vw_report.Campaign.entry ~name ~ok:true ~detail:"" ())
              in
              let campaign = Vw_report.Campaign.v ~command:"fuzz" entries in
              print_string
                (Vw_report.Campaign.summary_json
                   ~extra:
                     [
                       ("seed", string_of_int seed);
                       ("runs", string_of_int runs);
                       ( "defect",
                         Printf.sprintf "%S"
                           (Vw_check.Oracles.defect_to_string defect) );
                     ]
                   campaign)
            end;
            Vw_check.Fuzz.exit_code summary
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based scenario fuzzing: generate seeded well-typed FSL \
          scripts plus traffic schedules, execute them on the deterministic \
          simulator, and check differential oracles (indexed vs linear \
          classifier, codec and event-log round-trips, live vs offline \
          coverage, counter/report/term cascade invariants). Exit 0 when \
          clean, 2 on an oracle failure.")
    Term.(
      const run $ runs_arg $ campaign_opts_term $ shrink_arg $ save_arg
      $ defect_arg $ replay_arg $ replay_dir_arg)

(* --- triage / compare: campaign intelligence (lib/report) --- *)

let triage_cmd =
  let journal_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:"Failure journal to triage (vw-failures/1 JSON Lines).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt int Vw_report.Triage.default_threshold
      & info [ "threshold" ] ~docv:"N"
          ~doc:
            "Occurrences before a signature counts as recurring (default 3 \
             — the rule of three).")
  in
  let fail_arg =
    Arg.(
      value & flag
      & info [ "fail-on-recurring" ]
          ~doc:
            "Exit 2 when any signature recurs ($(b,--threshold) or more \
             occurrences) — the nightly-fuzz CI gate.")
  in
  let promote_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "promote" ] ~docv:"DIR"
          ~doc:
            "Promote each recurring cluster's reproducer into $(docv) as \
             sig-<signature>.fsl (the regression corpus $(b,vwctl fuzz \
             --replay-dir) replays), creating the directory if needed.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the cluster table as JSON (schema vw-triage/1).")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:
            "Also write the self-contained fleet dashboard (signature \
             clusters with trend sparklines, per-scenario health) to \
             $(docv).")
  in
  let run journal_path threshold fail_on_recurring promote json html =
    match Vw_report.Journal.load journal_path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok records -> (
        let clusters = Vw_report.Triage.clusters records in
        if json then
          print_string (Vw_report.Triage.to_json ~threshold clusters)
        else Format.printf "%a" (Vw_report.Triage.pp ~threshold) clusters;
        let html_written =
          write_file html (fun oc ->
              output_string oc
                (Vw_report.Html_report.render_fleet ~journal:records ~clusters
                   ~threshold ()))
          |> Result.map (fun () ->
                 Option.iter (Printf.printf "wrote %s\n") html)
        in
        let recurring = Vw_report.Triage.recurring ~threshold clusters in
        let promoted =
          match (html_written, promote) with
          | (Error _ as e), _ -> e
          | Ok (), None -> Ok ()
          | Ok (), Some dir -> (
              match Vw_report.Triage.promote ~corpus_dir:dir recurring with
              | Ok written ->
                  List.iter
                    (fun (signature, dest) ->
                      Printf.printf "promoted %s -> %s\n" signature dest)
                    written;
                  Ok ()
              | Error e -> Error e)
        in
        match promoted with
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            1
        | Ok () ->
            if fail_on_recurring && recurring <> [] then begin
              Printf.eprintf
                "%d signature(s) recurring at threshold %d — see the \
                 cluster table\n"
                (List.length recurring) threshold;
              2
            end
            else 0)
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:
         "Cluster a failure journal by signature (oracle + normalized \
          diagnosis), flag signatures seen --threshold or more times (the \
          rule of three), and optionally promote their reproducers into \
          the regression corpus. Exit 2 with --fail-on-recurring when a \
          recurring signature exists.")
    Term.(
      const run $ journal_pos $ threshold_arg $ fail_arg $ promote_arg
      $ json_arg $ html_arg)

let compare_cmd =
  let old_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline campaign directory.")
  in
  let new_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate campaign directory.")
  in
  let bench_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "bench-delta" ] ~docv:"FILE"
          ~doc:
            "Fold the per-metric verdicts of a vw-bench-delta/1 file \
             (written by scripts/bench_compare.sh) into the comparison.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the comparison as JSON (schema vw-compare/1).")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:
            "Also write the fleet dashboard with the comparison table to \
             $(docv).")
  in
  let fail_arg =
    Arg.(
      value & flag
      & info [ "fail-on-regression" ]
          ~doc:
            "Exit 4 when NEW regresses OLD: a case flipped pass to fail, a \
             new failure signature appeared, rule coverage dropped, or a \
             bench metric regressed.")
  in
  let run old_dir new_dir bench json html fail_on_regression =
    match
      ( Vw_report.Compare.load_side old_dir,
        Vw_report.Compare.load_side new_dir )
    with
    | Error e, _ | _, Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok old_side, Ok new_side ->
        let bench =
          match bench with
          | None -> []
          | Some path -> (
              match Vw_report.Compare.load_bench_delta path with
              | Ok b -> b
              | Error e ->
                  Printf.eprintf "warning: --bench-delta %s: %s\n" path e;
                  [])
        in
        let t = Vw_report.Compare.analyze ~bench ~old_side ~new_side () in
        if json then print_string (Vw_report.Compare.to_json t)
        else Format.printf "%a" Vw_report.Compare.pp t;
        match
          write_file html (fun oc ->
              output_string oc
                (Vw_report.Html_report.render_fleet
                   ~title:"VirtualWire campaign comparison"
                   ~journal:new_side.Vw_report.Compare.s_journal ~compare:t ()))
        with
        | Error e -> write_error e
        | Ok () ->
            Option.iter (Printf.printf "wrote %s\n") html;
            if fail_on_regression && Vw_report.Compare.regressions t <> [] then
              4
            else 0
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two campaign directories (vwctl suite --campaign-out): case \
          pass/fail changes, per-rule/filter/counter coverage deltas, \
          new/fixed/persisting failure signatures from their journals, and \
          optionally bench verdicts. Exit 4 on regression with \
          --fail-on-regression.")
    Term.(
      const run $ old_pos $ new_pos $ bench_arg $ json_arg $ html_arg
      $ fail_arg)

(* --- script --- *)

let script_cmd =
  let which_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("figure5", `F5); ("figure6", `F6) ])) None
      & info [] ~docv:"NAME")
  in
  let run which =
    print_string
      (match which with
      | `F5 -> Vw_scripts.tcp_ss_ca
      | `F6 -> Vw_scripts.rether_failure);
    0
  in
  Cmd.v
    (Cmd.info "script"
       ~doc:"Print one of the paper's embedded scenario scripts.")
    Term.(const run $ which_arg)

(* --- events (log utilities) --- *)

let events_cmd =
  let input_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Event log to read: vw-events/1 JSONL or vw-events/2 binary, \
             auto-detected.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  let export_cmd =
    let run input output format verbose =
      setup_logs verbose;
      match Vw_report.Events_io.load input with
      | Error e ->
          Printf.eprintf "%s: %s\n" input e;
          1
      | Ok (header, events) ->
          let scenario, recorded, dropped =
            match header with
            | Some { Vw_report.Events_io.scenario; recorded; dropped } ->
                (scenario, recorded, dropped)
            | None -> ("", List.length events, 0)
          in
          let write oc =
            match format with
            | `Json -> write_events_jsonl oc ~scenario ~recorded ~dropped events
            | `Bin ->
                output_string oc
                  (Vw_obs.Binlog.of_events ~scenario ~recorded ~dropped events)
          in
          match output with
          | None ->
              write stdout;
              0
          | Some _ -> (
              match write_file output write with
              | Ok () -> 0
              | Error e -> write_error e)
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Convert an event log between schemas: read either format \
            (auto-detected) and write $(b,--events-format) (default json). \
            The JSONL output is byte-identical to what $(b,vwctl run \
            --events) writes for the same run, so downstream jq pipelines \
            and coverage runs cannot tell how the events were captured.")
      Term.(
        const run $ input_arg $ output_arg $ events_format_arg $ verbose_arg)
  in
  Cmd.group
    (Cmd.info "events"
       ~doc:"Event-log utilities (binary \xE2\x86\x94 JSONL conversion).")
    [ export_cmd ]

let () =
  let doc = "network fault injection and analysis (VirtualWire, ICDCS 2003)" in
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "Every subcommand exits 0 on success and 1 on usage, script or I/O \
         errors. Verdict exits are distinct per subcommand so CI can tell \
         a broken invocation from a failed check:";
      `Pre
        "  2  run/suite: a scenario or suite case failed\n\
        \  2  conform: an EXPECT was missed (see its diagnosis)\n\
        \  2  fuzz: an oracle failure was found (or a reproducer still \
         fails)\n\
        \  2  triage --fail-on-recurring: a signature recurs\n\
        \  3  cover --fail-under: rule coverage below the threshold\n\
        \  4  compare --fail-on-regression: NEW regresses OLD";
    ]
  in
  let info = Cmd.info "vwctl" ~version:"1.0.0" ~doc ~man in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd;
            parse_cmd;
            run_cmd;
            explain_cmd;
            cover_cmd;
            report_cmd;
            suite_cmd;
            conform_cmd;
            fuzz_cmd;
            triage_cmd;
            compare_cmd;
            events_cmd;
            script_cmd;
          ]))
