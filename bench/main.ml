(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6 case studies + Section 7 performance study).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig7       -- one section
     (sections: case-studies fig7 fig8 micro campaign ablation summary)

   Absolute numbers come from a simulated testbed, not the authors' 2003
   Pentium-4 hardware; what is expected to reproduce is the *shape* of each
   result (see EXPERIMENTS.md). *)

open Vw_sim
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Stats = Vw_util.Stats

let args = List.tl (Array.to_list Sys.argv)
let flags, sections = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args
let json_mode = List.mem "--json" flags
let section_enabled name = sections = [] || List.mem name sections

let header title = Printf.printf "\n== %s ==\n%!" title

(* Every host-time measurement here reads this one clock: monotonic (it
   never steps), wall time (not process CPU time), the clock the bechamel
   rows and e2ebench use. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let elapsed_s t0 = float_of_int (now_ns () - t0) /. 1e9

(* In --json mode each section contributes a fragment ("key": {...}) and
   the driver prints them as ONE vw-bench-micro/1 object, so `micro
   campaign --json` stays a single parseable document. *)
let json_fragments : string list ref = ref []
let emit_json fragment = json_fragments := fragment :: !json_fragments

let print_json () =
  print_string "{\n  \"schema\": \"vw-bench-micro/1\",\n";
  print_string (String.concat ",\n" (List.rev !json_fragments));
  print_string "}\n"

(* ------------------------------------------------------------------ *)
(* Figure 7: TCP throughput vs offered load, with/without VirtualWire  *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header
    "Figure 7: TCP throughput (Mbps) vs offered load, 100 Mbps half-duplex \
     testbed";
  Printf.printf "%-14s %10s %10s %10s %12s %12s\n" "offered_Mbps" "bare" "vw"
    "vw+rll" "rll_vs_vw%" "rll_vs_bare%";
  let duration = Simtime.ms 400 in
  let loads = [ 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 95.; 100. ] in
  List.iter
    (fun offered ->
      let run config =
        let testbed =
          Workload.prepare ~shared_bus:true
            ~script_of:Workload.tcp_overhead_script config
        in
        Workload.tcp_offered_load_run testbed ~offered_mbps:offered ~duration
      in
      let bare = run Workload.Bare in
      let vw = run (Workload.Vw { n_filters = 25; actions = true }) in
      let vw_rll = run (Workload.Vw_rll { n_filters = 25; actions = true }) in
      let pct a b = if a > 0.0 then (a -. b) /. a *. 100.0 else 0.0 in
      Printf.printf "%-14.0f %10.2f %10.2f %10.2f %12.1f %12.1f\n%!" offered
        bare vw vw_rll (pct vw vw_rll) (pct bare vw_rll))
    loads;
  Printf.printf
    "(paper: throughput tracks offered load; RLL costs <10%% beyond ~90 Mbps)\n"

(* ------------------------------------------------------------------ *)
(* Figure 8: UDP round-trip latency overhead vs number of filters      *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header
    "Figure 8: UDP echo RTT overhead (%) vs number of packet type definitions";
  let samples = 300 and payload_size = 1024 in
  let baseline_testbed =
    Workload.prepare ~script_of:Workload.udp_overhead_script Workload.Bare
  in
  let baseline =
    Stats.mean (Workload.udp_rtt_run baseline_testbed ~samples ~payload_size)
  in
  Printf.printf "baseline RTT: %.1f us\n" (baseline *. 1e6);
  Printf.printf "%-10s %12s %18s %22s\n" "filters" "rules_only"
    "rules+25actions" "rules+actions+RLL";
  let overhead config =
    let testbed =
      Workload.prepare ~script_of:Workload.udp_overhead_script config
    in
    let rtt = Stats.mean (Workload.udp_rtt_run testbed ~samples ~payload_size) in
    (rtt -. baseline) /. baseline *. 100.0
  in
  List.iter
    (fun n ->
      let rules = overhead (Workload.Vw { n_filters = n; actions = false }) in
      let actions = overhead (Workload.Vw { n_filters = n; actions = true }) in
      let rll = overhead (Workload.Vw_rll { n_filters = n; actions = true }) in
      Printf.printf "%-10d %11.2f%% %17.2f%% %21.2f%%\n%!" n rules actions rll)
    [ 1; 5; 10; 15; 20; 25 ];
  Printf.printf
    "(paper: linear growth with filter count; <=7%% at 25 filters with RLL. \
     The indexed classifier charges only the filters actually scanned, so \
     these rows stay flat where the paper's linear scan grew — see \
     EXPERIMENTS.md)\n"

(* ------------------------------------------------------------------ *)
(* Section 6 case studies as pass/fail rows                            *)
(* ------------------------------------------------------------------ *)

let script_loc src =
  (* scenario length the way the paper counts it: non-empty, non-comment
     lines of the SCENARIO section *)
  let lines = String.split_on_char '\n' src in
  let in_scenario = ref false in
  List.fold_left
    (fun acc line ->
      let line = String.trim line in
      if String.length line >= 8 && String.sub line 0 8 = "SCENARIO" then begin
        in_scenario := true;
        acc + 1
      end
      else if
        !in_scenario && line <> "" && line <> "END"
        && not (String.length line >= 2 && String.sub line 0 2 = "/*")
      then acc + 1
      else acc)
    0 lines

let run_figure5 ~broken () =
  let module Tcp = Vw_tcp.Tcp in
  let tables =
    match Vw_fsl.Compile.parse_and_compile Vw_scripts.tcp_ss_ca with
    | Ok t -> t
    | Error e -> failwith e
  in
  let testbed = Testbed.of_node_table tables in
  let config =
    { Tcp.default_config with broken_no_congestion_avoidance = broken }
  in
  let workload tb =
    let node1 = Testbed.node tb "node1" in
    let node2 = Testbed.node tb "node2" in
    let stack1 = Testbed.tcp node1 in
    let stack2 = Testbed.tcp node2 in
    ignore
      (Tcp.listen stack2 ~port:0x4000 ~on_accept:(fun conn ->
           Tcp.on_data conn (fun _ -> ())));
    let conn =
      Tcp.connect ~config stack1 ~src_port:0x6000
        ~dst:(Vw_stack.Host.ip (Testbed.host node2))
        ~dst_port:0x4000
    in
    Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.create 30_000))
  in
  match
    Scenario.run testbed ~script:Vw_scripts.tcp_ss_ca
      ~max_duration:(Simtime.sec 30.0) ~workload
  with
  | Ok r -> r
  | Error e -> failwith e

let run_figure6 ~broken () =
  let module Tcp = Vw_tcp.Tcp in
  let module Rether = Vw_rether.Rether in
  let tables =
    match Vw_fsl.Compile.parse_and_compile Vw_scripts.rether_failure with
    | Ok t -> t
    | Error e -> failwith e
  in
  let testbed = Testbed.of_node_table tables in
  let ring =
    List.map
      (fun n -> Vw_stack.Host.mac (Testbed.host n))
      (Testbed.nodes testbed)
  in
  let rconfig =
    { (Rether.default_config ~ring) with broken_no_eviction = broken }
  in
  let rethers =
    List.map
      (fun n ->
        (Testbed.name n, Rether.install ~config:rconfig (Testbed.host n)))
      (Testbed.nodes testbed)
  in
  let workload tb =
    List.iter (fun (nm, r) -> if nm = "node1" then Rether.start r) rethers;
    let node1 = Testbed.node tb "node1" in
    let node4 = Testbed.node tb "node4" in
    let stack1 = Testbed.tcp node1 in
    let stack4 = Testbed.tcp node4 in
    ignore
      (Tcp.listen stack4 ~port:0x4000 ~on_accept:(fun conn ->
           Tcp.on_data conn (fun _ -> ())));
    let conn =
      Tcp.connect stack1 ~src_port:0x6000
        ~dst:(Vw_stack.Host.ip (Testbed.host node4))
        ~dst_port:0x4000
    in
    Tcp.on_established conn (fun () ->
        Tcp.send conn (Bytes.create (1200 * 1000)))
  in
  match
    Scenario.run testbed ~script:Vw_scripts.rether_failure
      ~max_duration:(Simtime.sec 120.0) ~workload
  with
  | Ok r -> r
  | Error e -> failwith e

let case_studies () =
  header "Section 6 case studies (scenario verdicts)";
  Printf.printf "%-44s %-12s %-8s %10s %9s\n" "scenario" "outcome" "errors"
    "verdict" "sim_time";
  let row name (r : Scenario.result) ~expect_pass =
    let ok = Scenario.passed r = expect_pass in
    Printf.printf "%-44s %-12s %-8d %10s %8.2fs\n%!" name
      (Scenario.outcome_to_string r.outcome)
      (List.length r.errors)
      (if ok then "OK" else "UNEXPECTED")
      (Simtime.to_sec r.duration)
  in
  row "6.1 TCP slow-start->CA, correct TCP" (run_figure5 ~broken:false ())
    ~expect_pass:true;
  row "6.1 TCP slow-start->CA, TCP w/o CA (bug)" (run_figure5 ~broken:true ())
    ~expect_pass:false;
  row "6.2 Rether node failure, correct recovery"
    (run_figure6 ~broken:false ())
    ~expect_pass:true;
  row "6.2 Rether node failure, no eviction (bug)"
    (run_figure6 ~broken:true ())
    ~expect_pass:false;
  Printf.printf "script sizes: figure 5 = %d lines, figure 6 = %d lines\n"
    (script_loc Vw_scripts.tcp_ss_ca)
    (script_loc Vw_scripts.rether_failure);
  Printf.printf "(paper: \"10 to 20 lines of script\" per scenario)\n"

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of the engine's per-packet path (bechamel)         *)
(* ------------------------------------------------------------------ *)

let micro_tables n =
  match
    Vw_fsl.Compile.parse_and_compile
      (Workload.udp_overhead_script ~n_filters:n ~actions:false)
  with
  | Ok t -> t
  | Error e -> failwith e

let ping_eth =
  let src = Vw_net.Ip_addr.of_host_index 1 in
  let dst = Vw_net.Ip_addr.of_host_index 2 in
  let udp =
    Vw_net.Udp.to_bytes ~src ~dst
      (Vw_net.Udp.make ~src_port:0x1388 ~dst_port:0x1389 (Bytes.create 1024))
  in
  let ip =
    Vw_net.Ipv4.to_bytes
      (Vw_net.Ipv4.make ~protocol:Vw_net.Ipv4.protocol_udp ~src ~dst udp)
  in
  Vw_net.Eth.make ~dst:(Vw_net.Mac.of_int 2) ~src:(Vw_net.Mac.of_int 1)
    ~ethertype:Vw_net.Eth.ethertype_ipv4 ip

(* Adversarial tables: the index's worst cases, not its best. 1000
   singleton buckets stress the dispatch itself; a single shared bucket
   degenerates the indexed scan to the linear one; an all-masked table
   lands everything in the always-scanned fallback. *)
let adversarial_tables () =
  let compile src =
    match Vw_fsl.Compile.parse_and_compile src with
    | Ok t -> t
    | Error e -> failwith e
  in
  ( compile (Workload.udp_overhead_script ~n_filters:1000 ~actions:false),
    compile (Workload.shared_bucket_script ~n_filters:256),
    compile (Workload.masked_fallback_script ~n_filters:256) )

let is_adversarial name =
  String.length name >= 7 && String.sub name 3 4 = "adv/"

(* ns/op per benchmark name, via bechamel OLS *)
let micro_classify_results () =
  let open Bechamel in
  let open Toolkit in
  let t1 = micro_tables 1
  and t25 = micro_tables 25
  and t100 = micro_tables 100 in
  let t1k, tshared, tmasked = adversarial_tables () in
  (* the compiled tables the engine runs, through its [classify_frame_c] *)
  let c1 = Vw_fsl.Tables.compile t1
  and c25 = Vw_fsl.Tables.compile t25
  and c100 = Vw_fsl.Tables.compile t100
  and c1k = Vw_fsl.Tables.compile t1k
  and cshared = Vw_fsl.Tables.compile tshared
  and cmasked = Vw_fsl.Tables.compile tmasked in
  let bindings = [||] in
  let ping_frame = Vw_net.Eth.to_bytes ping_eth in
  let tests =
    [
      Test.make ~name:"classify/1-filter"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_frame_c c1 ~bindings ping_eth));
      Test.make ~name:"classify/25-linear"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_linear t25 ~bindings ping_frame));
      Test.make ~name:"classify/25-compiled"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_frame_c c25 ~bindings ping_eth));
      Test.make ~name:"classify/100-linear"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_linear t100 ~bindings ping_frame));
      Test.make ~name:"classify/100-compiled"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_frame_c c100 ~bindings ping_eth));
      Test.make ~name:"adv/1k-singleton-compiled"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_frame_c c1k ~bindings ping_eth));
      Test.make ~name:"adv/1k-singleton-linear"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_linear t1k ~bindings ping_frame));
      Test.make ~name:"adv/256-shared-bucket-linear"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_linear tshared ~bindings ping_frame));
      Test.make ~name:"adv/256-shared-bucket-compiled"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_frame_c cshared ~bindings ping_eth));
      Test.make ~name:"adv/256-masked-fallback-compiled"
        (Staged.stage (fun () ->
             Vw_engine.Classifier.classify_frame_c cmasked ~bindings ping_eth));
      Test.make ~name:"fsl/parse-figure5"
        (Staged.stage (fun () -> Vw_fsl.Parser.parse Vw_scripts.tcp_ss_ca));
      Test.make ~name:"fsl/compile-figure5"
        (Staged.stage (fun () ->
             Vw_fsl.Compile.parse_and_compile Vw_scripts.tcp_ss_ca));
      Test.make ~name:"tables/codec-roundtrip"
        (Staged.stage
           (let encoded = Vw_fsl.Tables_codec.to_bytes t25 in
            fun () -> Vw_fsl.Tables_codec.of_bytes encoded));
      Test.make ~name:"eth/decode"
        (Staged.stage (fun () -> Vw_net.Eth.of_bytes ping_frame));
    ]
  in
  let grouped = Test.make_grouped ~name:"vw" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> (name, ns) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

(* One run of the flight-recorder ablation: 6000 UDP echoes through the
   fig8 testbed with 25 filters and the 25-action rule, host wall time
   divided by the packets the two engines inspected. (End-to-end speed is
   e2ebench's job: its echo_rules and echo_actions_rec workloads time this
   pipeline with repeated rounds and a spread.) *)
let micro_pipeline ~obs =
  let testbed =
    Workload.make_testbed (Workload.Vw { n_filters = 25; actions = true })
  in
  (* the recorder must be wired in before INIT traffic so the on/off
     ablation measures identical deployments *)
  if obs then Testbed.enable_observability testbed;
  Workload.deploy_overhead
    ~script:(Workload.udp_overhead_script ~n_filters:25 ~actions:true)
    testbed;
  (* the cost model withholds packets in *simulated* time; it does not
     affect the host-time measurement but keeps the run realistic *)
  let t0 = now_ns () in
  let rtts = Workload.udp_rtt_run testbed ~samples:6000 ~payload_size:256 in
  let wall = elapsed_s t0 in
  let packets =
    List.fold_left
      (fun acc n ->
        acc
        + (Vw_engine.Fie.stats (Testbed.fie n)).Vw_engine.Fie.packets_inspected)
      0 (Testbed.nodes testbed)
  in
  let ns_per_packet =
    if packets > 0 then wall *. 1e9 /. float_of_int packets else 0.0
  in
  let pps = if wall > 0.0 then float_of_int packets /. wall else 0.0 in
  ignore (Stats.mean rtts);
  ((wall, packets, ns_per_packet, pps), testbed)

(* What `vwctl run --events x.jsonl` adds on top of recording: decode the
   run's binary rings into typed events and render each as a JSONL line.
   Host wall time, per inspected packet. The default-capacity rings keep
   only the newest events (about one in twelve on this pipeline), so the
   cost per exported event is scaled up to every event the run recorded. *)
let jsonl_export_ns testbed ~packets =
  let t0 = now_ns () in
  let events = Testbed.events testbed in
  List.iter (fun e -> ignore (Vw_obs.Event.to_json e)) events;
  let wall = elapsed_s t0 in
  wall *. 1e9
  /. float_of_int (max 1 (List.length events))
  *. float_of_int (Testbed.events_recorded testbed)
  /. float_of_int (max 1 packets)

(* ------------------------------------------------------------------ *)
(* Engine entry: Fie.process_one throughput, one frame at a time        *)
(* ------------------------------------------------------------------ *)

(* One timed run: [packets] copies of the probe frame through node2's
   ingress engine, one [Fie.process_one] each. Verdicts are discarded
   (the engine, not the wire, is under measurement). *)
let engine_run fie ~frame ~packets =
  let process () =
    ignore (Vw_engine.Fie.process_one fie Vw_stack.Hook.Ingress frame)
  in
  (* warm-up: fault the compile-lazy paths *)
  process ();
  let t0 = now_ns () in
  for _ = 1 to packets do
    process ()
  done;
  float_of_int (now_ns () - t0) /. float_of_int packets

(* best-of-3 ns/packet on a freshly deployed engine *)
let engine_row ?(obs = false) ~script ~packets () =
  let testbed, fie, tables = Workload.direct_engine ~script in
  if obs then Testbed.enable_observability testbed;
  Workload.direct_engine_start fie tables;
  let best = ref infinity in
  for _ = 1 to 3 do
    Gc.compact ();
    best := Float.min !best (engine_run fie ~frame:ping_eth ~packets)
  done;
  !best

let engine_bench () =
  let udp25 = Workload.udp_overhead_script ~n_filters:25 ~actions:false in
  let rows =
    [
      (* 25 filters, counters only — the shape the 1M packets/sec target
         is stated against *)
      ("rules_only", engine_row ~script:udp25 ~packets:262_144 ());
      (* adversarial shapes at 1k-10k filters: a 1000-filter single shared
         bucket degenerates every classification to the linear scan; 10k
         singleton buckets stress the dispatch itself at scale *)
      ( "adv_1k_shared",
        engine_row
          ~script:(Workload.shared_bucket_script ~n_filters:1000)
          ~packets:8_192 () );
      ( "adv_10k_singleton",
        engine_row
          ~script:(Workload.big_singleton_script ~n_filters:10_000)
          ~packets:65_536 () );
      (* rules_only again with the binary flight recorder live: the delta
         prices recording per packet (2 events: classified + counter
         change) *)
      ("recording", engine_row ~obs:true ~script:udp25 ~packets:262_144 ());
    ]
  in
  let recording_ns =
    List.assoc "recording" rows -. List.assoc "rules_only" rows
  in
  let pps ns = if ns > 0.0 then 1e9 /. ns else 0.0 in
  if json_mode then
    Printf.sprintf
      "  \"engine\": {\n%s,\n    \"recording_ns_per_packet\": %.1f\n  },\n"
      (String.concat ",\n"
         (List.map
            (fun (name, ns) ->
              Printf.sprintf
                "    %S: { \"ns_per_packet\": %.1f, \"packets_per_sec\": %.0f }"
                name ns (pps ns))
            rows))
      recording_ns
  else begin
    header "Engine entry (Fie.process_one per frame, host wall time)";
    Printf.printf "%-20s %14s %14s\n" "shape" "ns/packet" "packets/sec";
    List.iter
      (fun (name, ns) ->
        Printf.printf "%-20s %14.1f %14.0f\n" name ns (pps ns))
      rows;
    Printf.printf
      "recording cost: %.1f ns per packet (binary ring, 2 events per packet)\n"
      recording_ns;
    ""
  end

let micro () =
  let all_results = micro_classify_results () in
  let adversarial, classify =
    List.partition (fun (n, _) -> is_adversarial n) all_results
  in
  (* Flight-recorder ablation: the rules+actions pipeline with the
     recorder disabled (the default no-op sink) and with the binary
     vw-events/2 ring. The on row prices the recording itself, and the
     JSONL export of the on run what `run --events x.jsonl` adds on top.
     The recording cost is a difference of two short wall clocks, so host
     load drift would swamp a single measurement. Interleave the two
     configurations round-robin (drift hits each config equally), compact
     the heap before every run, and keep the per-config minimum. *)
  let rounds = 4 in
  let best = Array.make 2 (0.0, 0, infinity, 0.0) in
  let export_ns = ref infinity in
  for _ = 1 to rounds do
    List.iteri
      (fun i obs ->
        Gc.compact ();
        let ((_, packets, ns, _) as r), testbed = micro_pipeline ~obs in
        let _, _, best_ns, _ = best.(i) in
        if ns < best_ns then best.(i) <- r;
        if obs then
          export_ns := Float.min !export_ns (jsonl_export_ns testbed ~packets))
      [ false; true ]
  done;
  let woff, poff, nsoff, ppsoff = best.(0) in
  let won, pon, nson, ppson = best.(1) in
  let recording_ns = nson -. nsoff in
  let index_stats t = Vw_fsl.Tables.index_stats (Vw_fsl.Tables.compile t) in
  let ib25, il25, if25 = index_stats (micro_tables 25) in
  let ib100, il100, if100 = index_stats (micro_tables 100) in
  let t1k, tshared, tmasked = adversarial_tables () in
  let adv_shapes =
    [
      ("1000-singleton", index_stats t1k);
      ("256-shared-bucket", index_stats tshared);
      ("256-masked-fallback", index_stats tmasked);
    ]
  in
  if json_mode then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "  \"classify_ns\": {\n";
    List.iteri
      (fun i (name, ns) ->
        Buffer.add_string buf
          (Printf.sprintf "    %S: %.2f%s\n" name ns
             (if i = List.length classify - 1 then "" else ",")))
      classify;
    Buffer.add_string buf "  },\n";
    Buffer.add_string buf "  \"classify_adversarial_ns\": {\n";
    List.iteri
      (fun i (name, ns) ->
        Buffer.add_string buf
          (Printf.sprintf "    %S: %.2f%s\n" name ns
             (if i = List.length adversarial - 1 then "" else ",")))
      adversarial;
    Buffer.add_string buf "  },\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"index\": {\n\
         \    \"25-filters\": { \"buckets\": %d, \"largest_bucket\": %d, \
          \"fallback\": %d },\n\
         \    \"100-filters\": { \"buckets\": %d, \"largest_bucket\": %d, \
          \"fallback\": %d },\n"
         ib25 il25 if25 ib100 il100 if100);
    List.iteri
      (fun i (name, (b, l, f)) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    %S: { \"buckets\": %d, \"largest_bucket\": %d, \
              \"fallback\": %d }%s\n"
             name b l f
             (if i = List.length adv_shapes - 1 then "" else ",")))
      adv_shapes;
    Buffer.add_string buf "  },\n";
    Buffer.add_string buf (engine_bench ());
    Buffer.add_string buf
      (Printf.sprintf
         "  \"obs_ablation\": {\n\
         \    \"recorder_off\": { \"wall_s\": %.4f, \"packets\": %d, \
          \"ns_per_packet\": %.1f, \"packets_per_sec\": %.0f },\n\
         \    \"recorder_on\": { \"wall_s\": %.4f, \"packets\": %d, \
          \"ns_per_packet\": %.1f, \"packets_per_sec\": %.0f },\n\
         \    \"recording_ns_per_packet\": %.1f,\n\
         \    \"jsonl_export_ns_per_packet\": %.1f\n\
         \  }\n"
         woff poff nsoff ppsoff won pon nson ppson recording_ns !export_ns);
    emit_json (Buffer.contents buf)
  end
  else begin
    header "Engine micro-benchmarks (bechamel, ns/op)";
    List.iter
      (fun (name, ns) -> Printf.printf "%-28s %12.1f ns/op\n" name ns)
      classify;
    Printf.printf
      "index: 25 filters -> %d buckets (largest %d, fallback %d); 100 \
       filters -> %d buckets (largest %d, fallback %d)\n"
      ib25 il25 if25 ib100 il100 if100;
    header "Classification index, adversarial tables (bechamel, ns/op)";
    List.iter
      (fun (name, ns) -> Printf.printf "%-36s %12.1f ns/op\n" name ns)
      adversarial;
    List.iter
      (fun (name, (b, l, f)) ->
        Printf.printf "index[%s]: %d buckets (largest %d, fallback %d)\n"
          name b l f)
      adv_shapes;
    Printf.printf
      "(shared-bucket and masked-fallback are built so the indexed scan \
       degenerates to the linear one — the honest floor of the index win)\n";
    header
      "Flight-recorder ablation (rules+actions fig8 UDP echo, host wall time)";
    Printf.printf "%-16s %10s %10s %14s %14s\n" "recorder" "wall_s" "packets"
      "ns/packet" "packets/sec";
    Printf.printf "%-16s %10.3f %10d %14.1f %14.0f\n" "off" woff poff nsoff
      ppsoff;
    Printf.printf "%-16s %10.3f %10d %14.1f %14.0f\n" "on" won pon nson
      ppson;
    Printf.printf
      "recording cost: %.1f ns per inspected packet (disabled recorder is \
       a single branch per would-be event); JSONL export adds %.1f ns\n"
      recording_ns !export_ns;
    ignore (engine_bench ())
  end

(* ------------------------------------------------------------------ *)
(* Campaign throughput: scenarios/sec through the vw_exec executor     *)
(* ------------------------------------------------------------------ *)

(* One trial = build the fig8 testbed (25 filters + 25 actions), deploy,
   and probe 200 UDP echos — the unit of work a suite/fuzz campaign
   repeats. Trials are independent jobs, so the executor can spread them
   over domains; the speedup over jobs=1 is bounded by the core count of
   the machine running the bench, which the JSON records as "cores". Wall
   time is host wall time ([now_ns]), not CPU time — CPU time sums across
   domains and would hide the parallelism.

   256 trials per level is deliberately large: at 16 the pool spin-up and
   the first chunk draws dominated the wall clock and the "speedup" mostly
   measured scheduling noise. VW_BENCH_TRIALS overrides for quick local
   runs (the committed BENCH_PR6.json uses the default). *)
let campaign_trials =
  match Option.bind (Sys.getenv_opt "VW_BENCH_TRIALS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 256

let campaign_trial _i =
  let testbed =
    Workload.prepare ~script_of:Workload.udp_overhead_script
      (Workload.Vw { n_filters = 25; actions = true })
  in
  let rtts = Workload.udp_rtt_run testbed ~samples:500 ~payload_size:256 in
  ignore (Stats.mean rtts)

(* Each level runs the DEFAULT executor path — the one `vwctl --jobs N`
   takes — so what is charted is what a user's campaign gets. That path
   caps parallelism at the host's core count (oversubscribed domains only
   multiply minor-GC barriers), so on a 1-core machine every level runs
   sequentially and the honest result is speedup ≈ 1.0, not a penalty;
   the per-level "workers" field records the parallelism actually used. *)
let campaign_run ~jobs =
  let workers = Vw_exec.Executor.effective_jobs ~jobs in
  let chunk = Vw_exec.Executor.auto_chunk ~jobs:workers campaign_trials in
  let t0 = now_ns () in
  let outs = Vw_exec.Executor.map ~jobs campaign_trials campaign_trial in
  let wall = elapsed_s t0 in
  assert (List.length outs = campaign_trials);
  (wall, float_of_int campaign_trials /. wall, chunk, workers)

let campaign () =
  let cores = Domain.recommended_domain_count () in
  let levels = [ 1; 2; 4; 8 ] in
  (* spawn every worker the deepest level will use BEFORE timing starts,
     and zero the compile-cache counters: each level then measures the
     steady state of a long campaign session (pool warm, cache
     denominators clean), not the one-off domain spawn cost *)
  let pool = Vw_exec.Pool.global () in
  Vw_exec.Pool.run pool
    ~workers:(Vw_exec.Executor.effective_jobs ~jobs:(List.fold_left max 1 levels) - 1)
    (fun () -> ());
  Vw_fsl.Compile_cache.reset ();
  let results = List.map (fun j -> (j, campaign_run ~jobs:j)) levels in
  let wall1 = match results with (_, (w, _, _, _)) :: _ -> w | [] -> 0.0 in
  let speedup wall = if wall > 0.0 then wall1 /. wall else 0.0 in
  let efficiency j wall = speedup wall /. float_of_int j in
  let pool_stats = Vw_exec.Pool.stats pool in
  let cache = Vw_fsl.Compile_cache.stats () in
  let hit_rate = Vw_fsl.Compile_cache.hit_rate () in
  if json_mode then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf
         "  \"campaign\": {\n    \"trials\": %d,\n    \"cores\": %d,\n"
         campaign_trials cores);
    List.iter
      (fun (j, (wall, sps, chunk, workers)) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    \"jobs_%d\": { \"wall_s\": %.4f, \"scenarios_per_sec\": \
              %.2f, \"speedup_vs_1\": %.2f, \"efficiency\": %.2f, \
              \"chunk\": %d, \"workers\": %d },\n"
             j wall sps (speedup wall) (efficiency j wall) chunk workers))
      results;
    Buffer.add_string buf
      (Printf.sprintf
         "    \"pool\": { \"workers_spawned\": %d, \"plans_run\": %d },\n"
         pool_stats.Vw_exec.Pool.spawned pool_stats.Vw_exec.Pool.runs);
    Buffer.add_string buf
      (Printf.sprintf
         "    \"compile_cache\": { \"hits\": %d, \"misses\": %d, \
          \"hit_rate\": %.4f }\n"
         cache.Vw_fsl.Compile_cache.hits cache.Vw_fsl.Compile_cache.misses
         hit_rate);
    Buffer.add_string buf "  }\n";
    emit_json (Buffer.contents buf)
  end
  else begin
    header "Campaign throughput (vw_exec executor, fig8 UDP echo trials)";
    Printf.printf "%d trials per level, %d core(s) available\n"
      campaign_trials cores;
    Printf.printf "%-8s %9s %10s %16s %12s %12s %8s\n" "jobs" "workers"
      "wall_s" "scenarios/sec" "speedup" "efficiency" "chunk";
    List.iter
      (fun (j, (wall, sps, chunk, workers)) ->
        Printf.printf "%-8d %9d %10.3f %16.2f %11.2fx %12.2f %8d\n%!" j
          workers wall sps (speedup wall) (efficiency j wall) chunk)
      results;
    Printf.printf
      "pool: %d worker domain(s) spawned across %d parallel campaign(s)\n"
      pool_stats.Vw_exec.Pool.spawned pool_stats.Vw_exec.Pool.runs;
    Printf.printf "compile cache: %d hits / %d misses (hit rate %.1f%%)\n"
      cache.Vw_fsl.Compile_cache.hits cache.Vw_fsl.Compile_cache.misses
      (hit_rate *. 100.0);
    Printf.printf
      "(speedup is bounded by the core count above — requested jobs beyond \
       it run with capped workers; efficiency = speedup / jobs; campaign \
       *output* is byte-identical at every jobs and chunk level — only the \
       wall clock moves)\n"
  end

(* ------------------------------------------------------------------ *)
(* Ablations of design choices DESIGN.md calls out                     *)
(* ------------------------------------------------------------------ *)

(* raw RLL transfer: push [frames] fixed-size frames a->b over a lossy
   full-duplex link and report goodput + RLL retransmissions *)
let rll_transfer ~rll_config ~loss ~frames ~size =
  let engine = Simtime.zero |> fun _ -> Vw_sim.Engine.create ~seed:7 () in
  let link =
    Vw_link.Link.create engine
      { Vw_link.Link.default_config with loss_rate = loss; max_queue = 1024 }
  in
  let mac i = Vw_net.Mac.of_int i and ip i = Vw_net.Ip_addr.of_host_index i in
  let a =
    Vw_stack.Host.create engine ~name:"a" ~mac:(mac 1) ~ip:(ip 1)
  in
  let b =
    Vw_stack.Host.create engine ~name:"b" ~mac:(mac 2) ~ip:(ip 2)
  in
  Vw_stack.Host.attach a
    (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a link));
  Vw_stack.Host.attach b
    (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_b link));
  Vw_stack.Host.add_neighbor a (ip 2) (mac 2);
  Vw_stack.Host.add_neighbor b (ip 1) (mac 1);
  let rll_a = Vw_rll.Rll.install ~config:rll_config a in
  let _rll_b = Vw_rll.Rll.install ~config:rll_config b in
  let received = ref 0 in
  let done_at = ref Simtime.zero in
  Vw_stack.Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ ->
      incr received;
      if !received = frames then done_at := Vw_sim.Engine.now engine);
  for _ = 1 to frames do
    Vw_stack.Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9
      (Bytes.create size)
  done;
  Vw_sim.Engine.run engine ~until:(Simtime.sec 60.0);
  let elapsed = Simtime.to_sec !done_at in
  let goodput =
    if !received = frames && elapsed > 0.0 then
      float_of_int (frames * size * 8) /. elapsed /. 1e6
    else 0.0
  in
  (goodput, (Vw_rll.Rll.stats rll_a).Vw_rll.Rll.retransmissions, !received)

let ablation () =
  header "Ablation 1: RLL sender window vs goodput (2% frame loss)";
  Printf.printf "%-8s %14s %16s\n" "window" "goodput_Mbps"
    "retransmissions";
  List.iter
    (fun window ->
      let config = { Vw_rll.Rll.default_config with window } in
      let goodput, retx, _ =
        rll_transfer ~rll_config:config ~loss:0.02 ~frames:2000 ~size:1000
      in
      Printf.printf "%-8d %14.2f %16d\n%!" window goodput retx)
    [ 1; 2; 4; 8; 16; 32; 64 ];
  Printf.printf
    "(goodput climbs with window depth until loss-recovery stalls dominate: \
     every lost frame blocks in-order delivery of everything behind it)\n";

  header
    "Ablation 2: RLL retransmission strategy at window 32 (2% frame loss)";
  Printf.printf "%-12s %14s %16s\n" "strategy" "goodput_Mbps"
    "retransmissions";
  List.iter
    (fun (name, go_back_n) ->
      let config =
        { Vw_rll.Rll.default_config with window = 32; go_back_n }
      in
      let goodput, retx, _ =
        rll_transfer ~rll_config:config ~loss:0.02 ~frames:2000 ~size:1000
      in
      Printf.printf "%-12s %14.2f %16d\n%!" name goodput retx)
    [ ("base-only", false); ("go-back-N", true) ];
  Printf.printf
    "(on an underloaded link go-back-N repairs several holes per timeout and \
     wins; under sustained load, where queueing delay approaches the \
     timeout, resending whole windows melts down — the Figure 7 regime — \
     which is why base-only + dup-ack repair is the default)\n";

  header "Ablation 3: classifier scan position, 25 filters (UDP echo RTT)";
  let samples = 200 and payload_size = 1024 in
  let baseline =
    Stats.mean
      (Workload.udp_rtt_run
         (Workload.prepare ~script_of:Workload.udp_overhead_script
            Workload.Bare)
         ~samples ~payload_size)
  in
  let overhead ~match_first =
    let testbed = Workload.make_testbed Workload.Bare in
    Workload.deploy_overhead
      ~script:
        (Workload.udp_overhead_script_at ~match_first ~n_filters:25
           ~actions:false)
      testbed;
    let rtt = Stats.mean (Workload.udp_rtt_run testbed ~samples ~payload_size) in
    (rtt -. baseline) /. baseline *. 100.0
  in
  Printf.printf "match in position 1:  %+.2f%% RTT\n"
    (overhead ~match_first:true);
  Printf.printf "match in position 25: %+.2f%% RTT\n%!"
    (overhead ~match_first:false);
  Printf.printf
    "(with the paper's linear scan this gap was the Figure 8 cost and why \
     its Figure 2 puts the most specific filters first; the classification \
     index dispatches on the discriminating field, so both positions now \
     scan O(1) candidates and the rows should agree to within noise)\n"

let summary () =
  header "Abstract-claims summary";
  Printf.printf
    "- test scenarios are 10-20 script lines (see the case-studies section)\n\
     - no code instrumentation: the scenarios above run unmodified protocol \
     implementations\n\
     - intrusiveness: fig7 = throughput loss under load, fig8 = latency \
     overhead\n"

let () =
  if not json_mode then
    Printf.printf "VirtualWire benchmark harness (simulated testbed)\n";
  if section_enabled "case-studies" then case_studies ();
  if section_enabled "fig7" then fig7 ();
  if section_enabled "fig8" then fig8 ();
  if section_enabled "micro" then micro ();
  if section_enabled "campaign" then campaign ();
  if section_enabled "ablation" then ablation ();
  if section_enabled "summary" then summary ();
  if json_mode then print_json ()
