(* The four benchmark workloads.

   Each one makes its inputs from the seed, hands them to the library
   through its public API only, times set-up and traffic apart, checks
   the outputs, and returns one [round]. With [traced] it also re-routes
   the testbed through the tracing wrappers below and measures the
   per-layer numbers that need a replay (classifier, compiler, evaluator).

   Why these four (see README.md): echo_rules is the paper's Fig. 8 path
   with the full stack around a cheap engine; echo_actions_rec sends the
   same packets through a 25-action cascade and the flight recorder;
   blast_mixed1k is the only one on the batched engine entry and is
   classifier-bound; conform_corpus is the user-facing [vwctl conform]
   command, set-up and offline evaluation included. *)

module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Host = Vw_stack.Host
module Hook = Vw_stack.Hook
module Fie = Vw_engine.Fie
module Engine = Vw_sim.Engine
module Simtime = Vw_sim.Simtime
module Prng = Vw_util.Prng
module T = Tracer

type round = {
  wall_ns : int;  (** host time of the measured traffic *)
  packets : int;  (** FIE inspections during it, summed over nodes *)
  attempted : int;
  failed : int;
  latency_us : float * float;
      (** host time of one operation: median and 99th percentile *)
  setup_s : float;  (** median of the round's set-ups *)
  heap_mb : float;  (** heap reachable from the testbed at the end *)
  minor_words : float;  (** allocated during the traffic *)
  scanned : int;  (** classifier candidates tested *)
  actions : int;  (** cascade actions executed *)
  fingerprint : string;  (** deterministic outputs: equal in every round *)
  errors : string list;  (** failed correctness checks *)
  layers : (string * string * float) list;
      (** traced rounds only: (name, unit, value) measured by replays *)
}

type t = {
  name : string;
  size : int;  (** operations in a full round *)
  run : seed:int -> size:int -> traced:bool -> round;
}

(* --- shared plumbing --- *)

let ms_of_ns ns = float_of_int ns /. 1e6

(* drop what earlier rounds left behind, the compile cache included *)
let quiesce () =
  Vw_fsl.Compile_cache.reset ();
  Gc.compact ()

(* The heap a testbed holds: every word reachable from it. Exact and
   independent of the benchmark's own arrays. [Gc.stat]'s live words are
   not: on OCaml 5.1, after a full major collection, they grew by 71 words
   across an echo round whose testbed held 6392. Callers unbind their
   sockets first so the handlers' closures do not drag the benchmark's
   arrays in. *)
let testbed_mb tb =
  float_of_int (Obj.reachable_words (Obj.repr tb) * (Sys.word_size / 8)) /. 1e6

let sum_stats tb f =
  List.fold_left
    (fun acc n -> acc + f (Fie.stats (Testbed.fie n)))
    0 (Testbed.nodes tb)

let s_inspected (s : Fie.stats) = s.Fie.packets_inspected
let s_scanned (s : Fie.stats) = s.Fie.filters_scanned
let s_actions (s : Fie.stats) = s.Fie.actions_executed
let s_matched (s : Fie.stats) = s.Fie.packets_matched

let compile_exn src =
  match Vw_fsl.Compile.parse_and_compile src with
  | Ok t -> t
  | Error e -> failwith ("compile: " ^ e)

let latency_quantiles a = (Stat.percentile a 50.0, Stat.percentile a 99.0)

let errors_of checks =
  List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks

(* Set-up takes from tens of microseconds to a few milliseconds, so one
   sample is noise: repeat it and keep the median. The last testbed is
   the one measured. *)
let setup_reps = 9

let timed_setups f =
  let samples = Array.make setup_reps 0.0 in
  let last = ref None in
  for i = 0 to setup_reps - 1 do
    let t0 = T.now_ns () in
    last := Some (f ());
    samples.(i) <- float_of_int (T.now_ns () - t0) /. 1e9
  done;
  (Stat.median samples, Option.get !last)

let median_ms f =
  Stat.median
    (Array.init 3 (fun _ ->
         let t0 = T.now_ns () in
         ignore (Sys.opaque_identity (f ()));
         ms_of_ns (T.now_ns () - t0)))

(* --- tracing wrappers ---

   [install_tracing] re-attaches every host to its link through a wrapped
   [Netif.t] (link.send around transmit, stack.rx around the receive
   callback) and replaces each engine's hooks with one at the same
   priority that calls [Fie.process_one] inside a fie span. Frames the
   hooks see are captured for the classifier replay. *)

let capture_cap = 4096

type capture = { frames : Vw_net.Eth.t array; mutable n : int }

let new_capture () =
  let blank =
    Vw_net.Eth.make ~dst:(Vw_net.Mac.of_int 0) ~src:(Vw_net.Mac.of_int 0)
      ~ethertype:0 Bytes.empty
  in
  { frames = Array.make capture_cap blank; n = 0 }

let capture cap (frame : Vw_net.Eth.t) =
  if cap.n < capture_cap && frame.ethertype <> Vw_net.Eth.ethertype_vw_control
  then begin
    cap.frames.(cap.n) <- frame;
    cap.n <- cap.n + 1
  end

let traced_netif (base : Vw_link.Netif.t) =
  {
    Vw_link.Netif.send =
      (fun b ->
        T.enter T.link_send;
        base.send b;
        T.exit ());
    set_receive =
      (fun f ->
        base.set_receive (fun b ->
            T.enter T.stack_rx;
            f b;
            T.exit ()));
  }

let install_tracing cap tb =
  List.iter
    (fun n ->
      let host = Testbed.host n and fie = Testbed.fie n in
      Option.iter
        (fun l ->
          Host.attach host
            (traced_netif
               (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a l))))
        (Testbed.link n);
      Fie.uninstall fie;
      List.iter
        (fun point ->
          ignore
            (Host.add_hook host point ~priority:Hook.priority_virtualwire
               ~name:"virtualwire" (fun frame ->
                 capture cap frame;
                 T.enter T.fie;
                 let v = Fie.process_one fie point frame in
                 T.exit ();
                 v)))
        [ Hook.Egress; Hook.Ingress ])
    (Testbed.nodes tb)

(* The captured frames replayed through the engine's classifier on the
   compiled tables: ns per classification, median of three ~20 ms loops. *)
let classify_ns tables cap =
  if cap.n = 0 then 0.0
  else begin
    let compiled = Vw_fsl.Tables.compile tables in
    let bindings =
      Array.make (Array.length tables.Vw_fsl.Tables.vars) None
    in
    let pass () =
      for i = 0 to cap.n - 1 do
        ignore
          (Sys.opaque_identity
             (Vw_engine.Classifier.classify_frame_c compiled ~bindings
                cap.frames.(i)))
      done
    in
    pass ();
    let sample () =
      let reps = ref 0 in
      let t0 = T.now_ns () in
      while T.now_ns () - t0 < 20_000_000 do
        pass ();
        incr reps
      done;
      float_of_int (T.now_ns () - t0) /. float_of_int (!reps * cap.n)
    in
    Stat.median [| sample (); sample (); sample () |]
  end

let link_queue_drops tb =
  List.fold_left
    (fun acc n ->
      match Testbed.link n with
      | Some l -> acc + (Vw_link.Link.stats l).Vw_link.Media_stats.dropped_queue
      | None -> acc)
    0 (Testbed.nodes tb)

(* --- the two-node testbed of the paper's Section 7 --- *)

let node_specs =
  [
    ("node1", Vw_net.Mac.of_int 1, Vw_net.Ip_addr.of_host_index 1);
    ("node2", Vw_net.Mac.of_int 2, Vw_net.Ip_addr.of_host_index 2);
  ]

let node_table =
  "NODE_TABLE\n\
   node1 02:00:00:00:00:01 10.0.0.1\n\
   node2 02:00:00:00:00:02 10.0.0.2\n\
   END\n"

let ping_port = 0x1388
let echo_port = 0x1389

(* The engine's CPU cost as simulated time (Fig. 8): it withholds each
   packet, so it shapes the simulated RTT, not the host time. *)
let cost_model =
  {
    Fie.cost_base = Simtime.ns 1_000;
    cost_per_filter = Simtime.ns 150;
    cost_per_action = Simtime.ns 150;
  }

let deploy ~seed ~recorder ~cost ~script () =
  Vw_fsl.Compile_cache.reset ();
  let tb =
    Testbed.create
      ~config:{ Testbed.default_config with seed; trace_capacity = 16 }
      node_specs
  in
  if recorder then Testbed.enable_observability ~capacity:65536 tb;
  (match Scenario.deploy_only tb ~script with
  | Ok _ -> ()
  | Error e -> failwith ("deploy: " ^ e));
  if cost then
    List.iter
      (fun n -> Fie.set_cost_model (Testbed.fie n) (Some cost_model))
      (Testbed.nodes tb);
  (* INIT and START reach both engines within 5 ms of simulated time *)
  Testbed.run tb ~until:(Simtime.ms 8) ();
  tb

(* --- echo_rules / echo_actions_rec: Fig. 8 UDP echo --- *)

let echo_locals = 24

(* 25 filters: 23 never-matching pads ahead of the ping and pong filters,
   so an unindexed scan would test all of them. With [actions], every
   ping that reaches node2 fires 25 actions: the RESET that re-arms the
   rule and 24 counter increments. *)
let fig8_script ~actions =
  let pads =
    List.init 23 (fun k -> Printf.sprintf "pad%d: (34 2 0x%x)\n" k (0xe000 + k))
  in
  let locals =
    List.init echo_locals (fun k -> Printf.sprintf "x%d: (node2)\n" k)
  in
  let incrs =
    List.init echo_locals (fun k -> Printf.sprintf "INCR_CNTR( x%d, 1 );\n" k)
  in
  String.concat ""
    ([ "FILTER_TABLE\n" ] @ pads
    @ [
        "udp_ping: (34 2 0x1388), (36 2 0x1389)\n";
        "udp_pong: (34 2 0x1389), (36 2 0x1388)\n";
        "END\n";
        node_table;
        "SCENARIO fig8_echo\n";
        "PING: (udp_ping, node1, node2, RECV)\n";
      ]
    @ (if actions then locals else [])
    @ [ "(TRUE) >> ENABLE_CNTR( PING );\n" ]
    @ (if actions then "((PING = 1)) >> RESET_CNTR( PING );\n" :: incrs
       else [])
    @ [ "END\n" ])

(* Closed loop, one ping outstanding: the next ping leaves 50 µs of
   simulated time after each reply. *)
let echo ~actions ~recorder ~seed ~size:echoes ~traced =
  let script = fig8_script ~actions in
  let prng = Prng.create ~seed in
  let payload = Bytes.init 256 (fun _ -> Char.chr (Prng.byte prng)) in
  let lat = Array.make echoes 0.0 and rtt = Array.make echoes 0.0 in
  let cap = new_capture () in
  quiesce ();
  let setup_s, tb =
    timed_setups (deploy ~seed ~recorder ~cost:true ~script)
  in
  let engine = Testbed.engine tb in
  let alice = Testbed.host (Testbed.node tb "node1") in
  let bob = Testbed.host (Testbed.node tb "node2") in
  let bob_ip = Host.ip bob in
  if traced then install_tracing cap tb;
  Host.udp_bind bob ~port:echo_port (fun ~src ~src_port p ->
      if traced then begin
        T.enter T.app;
        T.enter T.stack_tx
      end;
      Host.udp_send bob ~src_port:echo_port ~dst:src ~dst_port:src_port p;
      if traced then begin
        T.exit ();
        T.exit ()
      end);
  let answered = ref 0 and corrupted = ref 0 in
  let sent_host = ref 0 and sent_sim = ref 0 in
  let send_ping () =
    T.request := !answered;
    sent_sim := Engine.now engine;
    sent_host := T.now_ns ();
    if traced then T.enter T.stack_tx;
    Host.udp_send alice ~src_port:ping_port ~dst:bob_ip ~dst_port:echo_port
      payload;
    if traced then T.exit ()
  in
  Host.udp_bind alice ~port:ping_port (fun ~src:_ ~src_port:_ p ->
      let t = T.now_ns () in
      if traced then T.enter T.app;
      let i = !answered in
      if i < echoes then begin
        lat.(i) <- float_of_int (t - !sent_host) /. 1e3;
        rtt.(i) <- Simtime.to_sec (Engine.now engine - !sent_sim) *. 1e6;
        if not (Bytes.equal p payload) then incr corrupted;
        answered := i + 1;
        if i + 1 < echoes then
          ignore (Engine.schedule_after engine ~delay:(Simtime.us 50) send_ping)
      end;
      if traced then T.exit ());
  let pk0 = sum_stats tb s_inspected and sc0 = sum_stats tb s_scanned in
  let ac0 = sum_stats tb s_actions and ma0 = sum_stats tb s_matched in
  let w0 = Gc.minor_words () in
  let t0 = T.now_ns () in
  send_ping ();
  if traced then T.enter T.sim_run;
  Engine.run engine
    ~until:Simtime.(Engine.now engine + Simtime.ms (10 * echoes));
  if traced then T.exit ();
  let wall_ns = T.now_ns () - t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let packets = sum_stats tb s_inspected - pk0 in
  let scanned = sum_stats tb s_scanned - sc0 in
  let actions_run = sum_stats tb s_actions - ac0 in
  let counters = Fie.counters (Testbed.fie (Testbed.node tb "node2")) in
  let counter name =
    List.find_map (fun (n, v, _) -> if n = name then Some v else None) counters
  in
  let counter_checks =
    if actions then
      (counter "PING" = Some 0, "PING counter not re-armed to 0")
      :: List.init echo_locals (fun k ->
             let name = Printf.sprintf "x%d" k in
             ( counter name = Some echoes,
               Printf.sprintf "counter %s is not %d" name echoes ))
    else
      [
        ( counter "PING" = Some echoes,
          Printf.sprintf "PING counter is not %d" echoes );
      ]
  in
  let errors =
    errors_of
      ([
         ( !answered = echoes,
           Printf.sprintf "%d of %d pings answered" !answered echoes );
         (!corrupted = 0, Printf.sprintf "%d replies corrupted" !corrupted);
         ( packets = 4 * echoes,
           Printf.sprintf "%d packets inspected, expected %d" packets
             (4 * echoes) );
       ]
      @ counter_checks)
  in
  let fingerprint =
    Printf.sprintf
      "answered=%d packets=%d matched=%d scanned=%d actions=%d \
       sim_rtt_us_p50=%.3f counters=%s"
      !answered packets
      (sum_stats tb s_matched - ma0)
      scanned actions_run
      (Stat.median (Array.sub rtt 0 !answered))
      (String.concat ","
         (List.map (fun (n, v, _) -> Printf.sprintf "%s=%d" n v) counters))
  in
  let layers =
    if not traced then []
    else
      let tables = compile_exn script in
      [
        ("classifier.ns_per_pkt", "ns", classify_ns tables cap);
        ( "fsl.compile_ms",
          "ms",
          median_ms (fun () -> Vw_fsl.Compile.parse_and_compile script) );
        ("core.deploy_ms", "ms", setup_s *. 1e3);
        ("link.queue_drops", "count", float_of_int (link_queue_drops tb));
      ]
      @
      if recorder then
        [
          ( "recorder.events_per_pkt",
            "count",
            float_of_int (Testbed.events_recorded tb) /. float_of_int packets );
          ( "obs.export_ms",
            "ms",
            median_ms (fun () -> Testbed.events_binary tb ~scenario:"echo") );
        ]
      else []
  in
  Host.udp_unbind alice ~port:ping_port;
  Host.udp_unbind bob ~port:echo_port;
  {
    wall_ns;
    packets;
    attempted = echoes;
    failed = echoes - !answered + !corrupted;
    latency_us = latency_quantiles (Array.sub lat 0 !answered);
    setup_s;
    heap_mb = testbed_mb tb;
    minor_words;
    scanned;
    actions = actions_run;
    fingerprint;
    errors;
    layers;
  }

let echo_rules =
  {
    name = "echo_rules";
    size = 80_000;
    run = echo ~actions:false ~recorder:false;
  }

let echo_actions_rec =
  {
    name = "echo_actions_rec";
    size = 60_000;
    run = echo ~actions:true ~recorder:true;
  }

(* The recorder-off twin of echo_actions_rec: the difference in FIE self
   time between the two prices the flight recorder per packet. *)
let echo_actions_norec =
  {
    name = "echo_actions_norec";
    size = echo_actions_rec.size;
    run = echo ~actions:true ~recorder:false;
  }

(* --- blast_mixed1k: one-way 64-byte UDP through the batched entry --- *)

(* 1024 filters, all on the source-port window (34, 2) the index keys on:
   512 singleton buckets first (a frame hitting one matches after testing
   1 filter), 256 filters sharing one bucket that never match (their
   second byte test reads payload bytes, which are all below 0x80), 255
   masked filters that cannot be indexed and land in the always-scanned
   fallback, then the real filter. *)
let singletons = 512
let singleton_port k = 0x2000 + k
let shared_port = 0x3000
let shared = 256
let masked = 255

let blast_script =
  String.concat ""
    ([ "FILTER_TABLE\n" ]
    @ List.init singletons (fun k ->
          Printf.sprintf "s%d: (34 2 0x%04x)\n" k (singleton_port k))
    @ List.init shared (fun k ->
          Printf.sprintf "h%d: (34 2 0x%04x), (%d 1 0xaa)\n" k shared_port
            (42 + (k mod 64)))
    @ List.init masked (fun k ->
          Printf.sprintf "m%d: (34 2 0xfff0 0x%04x)\n" k (0xe000 + (k lsl 4)))
    @ [
        "udp_ping: (34 2 0x1388), (36 2 0x1389)\n";
        "END\n";
        node_table;
        "SCENARIO blast_mixed\n";
        "PING: (udp_ping, node1, node2, RECV)\n";
        "(TRUE) >> ENABLE_CNTR( PING );\n";
        "END\n";
      ])

(* Source ports: 1/2 hit a singleton bucket, 1/4 the shared bucket, 1/4
   no bucket (0x4000-0xdfff: clear of every indexed value and of the
   masked range 0xe000-0xefff). Returns the ports and the exact number of
   filters one classification of each tests. *)
let blast_ports prng n =
  let ports = Array.make n 0 and cost = ref 0 in
  for i = 0 to n - 1 do
    match Prng.int prng 4 with
    | 0 | 1 ->
        ports.(i) <- singleton_port (Prng.int prng singletons);
        cost := !cost + 1
    | 2 ->
        ports.(i) <- shared_port;
        cost := !cost + shared + masked
    | _ ->
        ports.(i) <- 0x4000 + Prng.int prng 0xa000;
        cost := !cost + masked
  done;
  (ports, !cost)

let burst = 32

(* Open loop in simulated time: a 32-frame burst every 1 ms, built here
   and handed to node1's egress engine with [Testbed.process_batch]. One
   operation is one burst, timed from its injection to the delivery of
   its last frame to node2's socket. *)
let blast ~seed ~size:frames ~traced =
  let prng = Prng.create ~seed in
  let ports, scan_cost = blast_ports prng frames in
  let payload = Bytes.init 64 (fun _ -> Char.chr (Prng.int prng 0x80)) in
  let bursts = (frames + burst - 1) / burst in
  let lat = Array.make bursts 0.0 in
  let cap = new_capture () in
  quiesce ();
  let setup_s, tb =
    timed_setups
      (deploy ~seed ~recorder:false ~cost:false ~script:blast_script)
  in
  let engine = Testbed.engine tb in
  let n1 = Testbed.node tb "node1" in
  let ha = Testbed.host n1 and hb = Testbed.host (Testbed.node tb "node2") in
  if traced then install_tracing cap tb;
  let delivered = ref 0 and sent = ref 0 and burst_start = ref 0 in
  Host.udp_bind hb ~port:echo_port (fun ~src:_ ~src_port:_ _ ->
      if traced then T.enter T.app;
      let d = !delivered + 1 in
      delivered := d;
      if d mod burst = 0 || d = frames then
        lat.((d - 1) / burst) <-
          float_of_int (T.now_ns () - !burst_start) /. 1e3;
      if traced then T.exit ());
  let src = Host.ip ha and dst = Host.ip hb in
  let frame i =
    let udp =
      Vw_net.Udp.make ~src_port:ports.(i) ~dst_port:echo_port payload
    in
    let ip =
      Vw_net.Ipv4.make ~ident:(i land 0xffff)
        ~protocol:Vw_net.Ipv4.protocol_udp ~src ~dst
        (Vw_net.Udp.to_bytes ~src ~dst udp)
    in
    Vw_net.Eth.make ~dst:(Host.mac hb) ~src:(Host.mac ha)
      ~ethertype:Vw_net.Eth.ethertype_ipv4 (Vw_net.Ipv4.to_bytes ip)
  in
  let rec tick b =
    T.request := b;
    burst_start := T.now_ns ();
    let first = b * burst in
    let n = min burst (frames - first) in
    if traced then T.enter T.stack_tx;
    let batch = List.init n (fun j -> frame (first + j)) in
    if traced then begin
      T.exit ();
      T.enter T.fie_batch
    end;
    let processed = Testbed.process_batch tb n1 Hook.Egress batch in
    if traced then T.exit ();
    sent := !sent + processed;
    if first + n < frames then
      ignore
        (Engine.schedule_after engine ~delay:(Simtime.ms 1) (fun () ->
             tick (b + 1)))
  in
  let pk0 = sum_stats tb s_inspected and sc0 = sum_stats tb s_scanned in
  let ac0 = sum_stats tb s_actions and ma0 = sum_stats tb s_matched in
  let w0 = Gc.minor_words () in
  let t0 = T.now_ns () in
  ignore (Engine.schedule_after engine ~delay:0 (fun () -> tick 0));
  if traced then T.enter T.sim_run;
  Engine.run engine
    ~until:Simtime.(Engine.now engine + Simtime.ms (bursts + 1000));
  if traced then T.exit ();
  let wall_ns = T.now_ns () - t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let packets = sum_stats tb s_inspected - pk0 in
  let scanned_n = sum_stats tb s_scanned - sc0 in
  let actions = sum_stats tb s_actions - ac0 in
  let drops = link_queue_drops tb in
  let errors =
    errors_of
      [
        (!sent = frames, Printf.sprintf "%d of %d frames sent" !sent frames);
        ( !delivered = frames,
          Printf.sprintf "%d of %d frames delivered" !delivered frames );
        ( packets = 2 * frames,
          Printf.sprintf "%d packets inspected, expected %d" packets
            (2 * frames) );
        ( scanned_n = 2 * scan_cost,
          Printf.sprintf "%d filters scanned, expected %d" scanned_n
            (2 * scan_cost) );
        (drops = 0, Printf.sprintf "%d frames dropped at link queues" drops);
      ]
  in
  let fingerprint =
    Printf.sprintf "delivered=%d packets=%d matched=%d scanned=%d actions=%d"
      !delivered packets
      (sum_stats tb s_matched - ma0)
      scanned_n actions
  in
  let layers =
    if not traced then []
    else
      [
        ( "classifier.ns_per_pkt",
          "ns",
          classify_ns (compile_exn blast_script) cap );
        ( "fsl.compile_ms",
          "ms",
          median_ms (fun () -> Vw_fsl.Compile.parse_and_compile blast_script)
        );
        ("core.deploy_ms", "ms", setup_s *. 1e3);
        ("link.queue_drops", "count", float_of_int drops);
      ]
  in
  Host.udp_unbind hb ~port:echo_port;
  {
    wall_ns;
    packets;
    attempted = frames;
    failed = frames - !delivered;
    latency_us = latency_quantiles (Array.sub lat 0 (!delivered / burst));
    setup_s;
    heap_mb = testbed_mb tb;
    minor_words;
    scanned = scanned_n;
    actions;
    fingerprint;
    errors;
    layers;
  }

let blast_mixed1k = { name = "blast_mixed1k"; size = 40_000; run = blast }

(* --- conform_corpus: the committed conformance cases, end to end --- *)

module Wl = Vw_conform.Workloads

let corpus_dir = Filename.concat "e2ebench" "corpus"

type case = { c_name : string; source : string; d : Wl.directives }

let load_corpus () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fsl")
  |> List.sort compare
  |> List.map (fun f ->
         let source =
           In_channel.with_open_bin (Filename.concat corpus_dir f)
             In_channel.input_all
         in
         match Wl.parse_directives source with
         | Ok d -> { c_name = Filename.chop_suffix f ".fsl"; source; d }
         | Error e -> failwith (f ^ ": " ^ e))

let corpus = lazy (load_corpus ())

(* Eval.run over a finished case's events, as the driver runs it *)
let eval_ms case (cr : Vw_conform.Driver.case_result) ~anchor =
  match Vw_fsl.Parser.parse case.source with
  | Error e -> failwith e
  | Ok script -> (
      match Vw_fsl.Conform_ir.compile cr.c_tables script.Vw_fsl.Ast.conform with
      | Error es -> failwith (String.concat "; " es)
      | Ok ir ->
          median_ms (fun () ->
              Vw_conform.Eval.run cr.c_tables ~ir ~anchor ~events:cr.c_events))

(* One operation is one pass over the corpus, case after case through
   Driver.run: what [vwctl conform e2ebench/corpus] does. A case's set-up
   is the part of its Driver.run before the driver calls the workload:
   parse, compile, testbed, INIT and START. *)
let conform ~seed ~size:passes ~traced =
  let cases = Array.of_list (Lazy.force corpus) in
  let nc = Array.length cases in
  let case_us = Array.make (passes * nc) 0.0 in
  let setup_s = Array.make (passes * nc) 0.0 in
  quiesce ();
  let packets = ref 0 and attempted = ref 0 and failed = ref 0 in
  let scanned_n = ref 0 and actions_n = ref 0 and events = ref 0 in
  let errors = ref [] and summaries = ref [] in
  let wall_ns = ref 0 and minor_words = ref 0.0 in
  let last_tb = ref None in
  let replays = ref [] in
  for pass = 0 to passes - 1 do
    let results = ref [] in
    Array.iteri
      (fun i case ->
        let cap = new_capture () in
        let config =
          {
            (Option.value (Wl.directives_config case.d)
               ~default:Testbed.default_config)
            with
            seed;
          }
        in
        let setup_end = ref 0 and anchor = ref 0 and seen = ref None in
        let workload tb =
          setup_end := T.now_ns ();
          if traced then begin
            T.exit ();
            install_tracing cap tb;
            T.enter T.app
          end;
          anchor := Engine.now (Testbed.engine tb);
          seen := Some tb;
          Wl.make case.d.Wl.d_workload ~bytes:case.d.Wl.d_bytes tb;
          if traced then T.exit ()
        in
        T.request := (pass * nc) + i;
        let w0 = Gc.minor_words () in
        let t0 = T.now_ns () in
        if traced then begin
          T.enter T.conform_case;
          T.enter T.core_deploy
        end;
        let r =
          Vw_conform.Driver.run ~config
            ~max_duration:(Simtime.sec case.d.Wl.d_duration)
            ~capacity:Vw_conform.Driver.default_capacity ~workload
            ~name:case.c_name ~source:case.source ()
        in
        if traced then begin
          if !setup_end = 0 then T.exit ();
          T.exit ()
        end;
        let t1 = T.now_ns () in
        wall_ns := !wall_ns + (t1 - t0);
        minor_words := !minor_words +. (Gc.minor_words () -. w0);
        case_us.((pass * nc) + i) <- float_of_int (t1 - t0) /. 1e3;
        setup_s.((pass * nc) + i) <- float_of_int (!setup_end - t0) /. 1e9;
        Option.iter
          (fun tb ->
            packets := !packets + sum_stats tb s_inspected;
            scanned_n := !scanned_n + sum_stats tb s_scanned;
            actions_n := !actions_n + sum_stats tb s_actions;
            events := !events + Testbed.events_recorded tb;
            last_tb := Some tb)
          !seen;
        match r with
        | Error es ->
            incr attempted;
            incr failed;
            errors := (case.c_name ^ ": " ^ String.concat "; " es) :: !errors
        | Ok cr ->
            let n = List.length cr.Vw_conform.Driver.c_checked in
            let ok =
              List.length
                (List.filter
                   (fun (c : Vw_conform.Eval.checked) ->
                     Vw_conform.Eval.ok c.Vw_conform.Eval.verdict)
                   cr.c_checked)
            in
            attempted := !attempted + n;
            failed := !failed + (n - ok);
            if ok < n then
              errors :=
                Printf.sprintf "%s: %d of %d expectations missed" case.c_name
                  (n - ok) n
                :: !errors;
            results := Vw_conform.Report.of_result cr :: !results;
            if traced && pass = passes - 1 then
              replays :=
                ( case,
                  cr,
                  !anchor,
                  cap,
                  sum_stats (Option.get !seen) s_inspected )
                :: !replays)
      cases;
    summaries :=
      Vw_conform.Report.summary_json (List.rev !results) :: !summaries
  done;
  let fingerprint =
    match !summaries with
    | s :: rest ->
        if not (List.for_all (String.equal s) rest) then
          errors := "vw-conform/1 summary differs between passes" :: !errors;
        Printf.sprintf "packets=%d scanned=%d actions=%d events=%d summary=%s"
          (!packets / passes) (!scanned_n / passes) (!actions_n / passes)
          (!events / passes) (Digest.to_hex (Digest.string s))
    | [] -> ""
  in
  (* a pass's set-up: each case's median over the passes, summed, so a
     collection that lands in one case's set-up does not move it *)
  let setup_pass =
    Array.fold_left ( +. ) 0.0
      (Array.init nc (fun i ->
           Stat.median (Array.init passes (fun p -> setup_s.((p * nc) + i)))))
  in
  let layers =
    if not traced then []
    else
      let replays = List.rev !replays in
      let per_case f =
        List.fold_left (fun acc r -> acc +. f r) 0.0 replays
        /. float_of_int (List.length replays)
      in
      let case_ms =
        Array.to_list
          (Array.mapi
             (fun i case ->
               let total = ref 0.0 in
               for p = 0 to passes - 1 do
                 total := !total +. case_us.((p * nc) + i)
               done;
               ( "conform.case_ms." ^ case.c_name,
                 "ms",
                 !total /. float_of_int passes /. 1e3 ))
             cases)
      in
      let pass_packets = per_case (fun (_, _, _, _, p) -> float_of_int p) in
      [
        ( "classifier.ns_per_pkt",
          "ns",
          (* weighted by each case's packets *)
          per_case (fun (_, cr, _, cap, p) ->
              classify_ns cr.Vw_conform.Driver.c_tables cap *. float_of_int p)
          /. pass_packets );
        ( "fsl.compile_ms",
          "ms",
          per_case (fun (case, _, _, _, _) ->
              median_ms (fun () ->
                  Vw_fsl.Compile.parse_and_compile case.source))
        );
        ("core.deploy_ms", "ms", setup_pass *. 1e3 /. float_of_int nc);
        ( "conform.eval_ms_per_case",
          "ms",
          per_case (fun (case, cr, anchor, _, _) -> eval_ms case cr ~anchor) );
        ("compile_cache.hit_rate", "ratio", Vw_fsl.Compile_cache.hit_rate ());
        ( "recorder.events_per_pkt",
          "count",
          float_of_int !events /. float_of_int !packets );
      ]
      @ case_ms
  in
  {
    wall_ns = !wall_ns;
    packets = !packets;
    attempted = !attempted;
    failed = !failed;
    latency_us =
      latency_quantiles
        (Array.init passes (fun p ->
             Array.fold_left ( +. ) 0.0 (Array.sub case_us (p * nc) nc)));
    setup_s = setup_pass;
    heap_mb = Option.fold ~none:0.0 ~some:testbed_mb !last_tb;
    minor_words = !minor_words;
    scanned = !scanned_n;
    actions = !actions_n;
    fingerprint;
    errors = List.rev !errors;
    layers;
  }

let conform_corpus = { name = "conform_corpus"; size = 5; run = conform }

let all = [ echo_rules; echo_actions_rec; blast_mixed1k; conform_corpus ]

let find name = List.find_opt (fun w -> w.name = name) all
