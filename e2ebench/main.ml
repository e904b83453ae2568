(* The end-to-end benchmark (schema vw-bench/2). Run from the repository
   root: the metric list and bounds come from BENCHMARK.json, the
   conformance cases from e2ebench/corpus.

     dune exec e2ebench/main.exe -- e2e --seed 42 [--json] [--trace FILE]
     dune exec e2ebench/main.exe -- compare OLD.json NEW.json [--out FILE]
     dune exec e2ebench/main.exe -- run --workload W --seed N --seconds S \
       --trace 0|1
     dune exec e2ebench/main.exe -- selftest

   One process, one domain. Every end-to-end value is the median over
   rounds; each round builds a fresh testbed from the same seed, so every
   round must produce the same outputs. *)

module W = Workloads
module T = Tracer
module Json = Vw_report.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let read_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let member doc path =
  List.fold_left (fun acc k -> Option.bind acc (Json.mem k)) (Some doc) path

(* --- BENCHMARK.json --- *)

type metric = { name : string; unit : string; better : string; bound : float }
type spec = { end_to_end : metric list; per_layer : metric list }

let load_spec () =
  let path = "BENCHMARK.json" in
  let json = read_json path in
  let metrics key =
    match Option.bind (Json.mem key json) Json.to_list with
    | None -> fail "%s: no %s list" path key
    | Some l ->
        List.map
          (fun m ->
            let str k =
              Option.value ~default:""
                (Option.bind (Json.mem k m) Json.to_string)
            in
            {
              name = str "name";
              unit = str "unit";
              better = str "better";
              bound =
                Option.value ~default:0.0
                  (Option.bind (Json.mem "bound" m) Json.to_float);
            })
          l
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

(* --- rounds --- *)

let progress = ref true

let run_round (w : W.t) ~seed ~size ~traced =
  incr T.round;
  T.reset ();
  T.request := 0;
  let r = w.run ~seed ~size ~traced in
  let spans = T.snapshot () in
  if !progress then
    Printf.eprintf
      "  %-18s round %3d%s  %9.4f s  %9d packets  p50 %10.3f us%s\n%!" w.name
      !T.round
      (if traced then " traced" else "       ")
      (float_of_int r.W.wall_ns /. 1e9)
      r.W.packets
      (fst r.W.latency_us)
      (if r.W.errors = [] then "" else "  CHECK FAILED");
  (r, spans)

let ns_per_pkt (r : W.round) = float_of_int r.wall_ns /. float_of_int r.packets

(* The host is shared: for seconds at a time other tenants slow every
   round by up to 2x, and such a round only ever reads slower, never
   faster. So the traffic's timings are taken from the fast end of a
   group's rounds, which a change in the program moves as much as any
   other round: the [fast_pct]th percentile of latency and the
   (100 - [fast_pct])th of throughput. Set-up and heap take the median. *)
let fast_pct = 10.0

(* name, unit, one sample per group of rounds *)
let end_to_end_samples (groups : W.round list list) =
  let per stat f =
    Array.of_list
      (List.map (fun g -> stat (Array.of_list (List.map f g))) groups)
  in
  let fast_high a = Stat.percentile a (100.0 -. fast_pct)
  and fast_low a = Stat.percentile a fast_pct in
  [
    ("pkts_per_s", "1/s", per fast_high (fun r -> 1e9 /. ns_per_pkt r));
    ("latency_us_p50", "us", per fast_low (fun r -> fst r.W.latency_us));
    ("latency_us_p99", "us", per fast_low (fun r -> snd r.W.latency_us));
    ("setup_s", "s", per Stat.median (fun r -> r.W.setup_s));
    ("live_heap_mb", "MB", per Stat.median (fun r -> r.W.heap_mb));
  ]

(* Per-layer numbers of one traced round. Self times are divided by the
   round's FIE inspections; [untraced] supplies the tracing-off baseline
   and the allocation rate; [twin] is the recorder-off round whose FIE
   self time prices the recorder. *)
let layer_metrics ~untraced ((r : W.round), (s : T.snapshot)) ~twin =
  let p = float_of_int r.packets in
  let sum a ls = List.fold_left (fun acc l -> acc +. a l) 0.0 ls in
  let self_ns ((r : W.round), (s : T.snapshot)) ls =
    sum (fun l -> float_of_int s.s_self_ns.(l)) ls /. float_of_int r.packets
  in
  let words ls = sum (fun l -> s.s_self_words.(l)) ls /. p in
  let sim = [ T.sim_run; T.conform_case ] and fie = [ T.fie; T.fie_batch ] in
  let fie_ns = self_ns (r, s) fie in
  let classifier =
    List.find_map
      (fun (n, _, v) -> if n = "classifier.ns_per_pkt" then Some v else None)
      r.layers
    |> Option.value ~default:0.0
  in
  let single l =
    if s.s_count.(l) = 0 then []
    else
      [
        (T.names.(l) ^ ".self_ns_per_pkt", "ns", self_ns (r, s) [ l ]);
        (T.names.(l) ^ ".alloc_words_per_pkt", "words", words [ l ]);
      ]
  in
  let all_self = Array.fold_left ( + ) 0 s.s_self_ns in
  let median_of (f : W.round -> float) =
    Stat.median (Array.of_list (List.map f untraced))
  in
  [
    ("sim.self_ns_per_pkt", "ns", self_ns (r, s) sim);
    ("sim.alloc_words_per_pkt", "words", words sim);
    ("fie.self_ns_per_pkt", "ns", fie_ns);
    ("fie.alloc_words_per_pkt", "words", words fie);
  ]
  @ List.concat_map single
      [ T.link_send; T.stack_rx; T.stack_tx; T.fie_batch; T.app; T.core_deploy ]
  @ [
      ("cascade.ns_per_pkt", "ns", fie_ns -. classifier);
      ("cascade.actions_per_pkt", "count", float_of_int r.actions /. p);
      ("classifier.scanned_per_pkt", "count", float_of_int r.scanned /. p);
      ( "gc.minor_words_per_pkt",
        "words",
        median_of (fun u -> u.minor_words /. float_of_int u.packets) );
      ( "trace.overhead_pct",
        "%",
        100.0 *. ((ns_per_pkt r /. median_of ns_per_pkt) -. 1.0) );
      ( "trace.coverage_pct",
        "%",
        100.0 *. float_of_int all_self /. float_of_int r.wall_ns );
    ]
  @ r.layers
  @
  match twin with
  | None -> []
  | Some t -> [ ("recorder.ns_per_pkt", "ns", fie_ns -. self_ns t fie) ]

(* every check of every round, and the same outputs in each round:
   traced rounds included, which shows the wrappers are transparent *)
let check_rounds (rounds : W.round list) =
  let errors = List.concat_map (fun (r : W.round) -> r.errors) rounds in
  match rounds with
  | r0 :: rest
    when List.exists (fun (r : W.round) -> r.fingerprint <> r0.fingerprint) rest
    ->
      let differ (r : W.round) =
        "outputs differ between rounds: " ^ r.fingerprint
      in
      errors @ List.map differ rounds
  | _ -> errors

(* --- JSON output --- *)

(* the shorter of %.15g and %.17g that reads back as the same float *)
let num f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let str s = Printf.sprintf "%S" s

let json_obj fields =
  let field (k, v) = Printf.sprintf "%S: %s" k v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

(* rounds run and checked but not measured: the first rounds of a process
   grow its heap and fault its pages in *)
let warmups = 2

(* --- run: one workload for a fixed time, the form BENCHMARK.json's
   "command" uses --- *)

let run_mode ~workload ~seed ~seconds ~trace =
  let spec = load_spec () in
  let w =
    match W.find workload with
    | Some w -> w
    | None -> fail "unknown workload %S" workload
  in
  let round traced = run_round w ~seed ~size:w.size ~traced in
  let warm = List.init warmups (fun _ -> fst (round false)) in
  let deadline = T.now_ns () + (seconds * 1_000_000_000) in
  let untraced = ref [] and traced = ref [] in
  (* with --trace 1, traced rounds alternate with the untraced rounds that
     give their baseline *)
  while
    T.now_ns () < deadline
    || List.length !untraced < 3
    || (trace && List.length !traced < 2)
  do
    if trace && List.length !untraced > List.length !traced then
      traced := round true :: !traced
    else untraced := fst (round false) :: !untraced
  done;
  let timed = !untraced @ List.map fst !traced in
  let total f = List.fold_left (fun a (r : W.round) -> a + f r) 0 timed in
  (* (name, unit, value) tables, reported by their median: one per traced
     round, or one from all the untraced rounds as a group *)
  let metrics, tables =
    if trace then
      ( spec.per_layer,
        List.map
          (fun rs -> layer_metrics ~untraced:!untraced rs ~twin:None)
          !traced )
    else
      ( spec.end_to_end,
        [
          List.map
            (fun (n, u, a) -> (n, u, a.(0)))
            (end_to_end_samples [ !untraced ]);
        ] )
  in
  let values =
    List.map
      (fun (m : metric) ->
        let find =
          List.find_map (fun (n, _, v) -> if n = m.name then Some v else None)
        in
        (m, Stat.median (Array.of_list (List.filter_map find tables))))
      metrics
  in
  let errors =
    check_rounds (warm @ timed)
    @ List.filter_map
        (fun ((m : metric), v) ->
          if Float.is_finite v then None else Some ("no value for " ^ m.name))
        values
  in
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) errors;
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (errors = []));
         ("attempted", string_of_int (total (fun r -> r.attempted)));
         ("failed", string_of_int (total (fun r -> r.failed)));
         ( "metrics",
           json_obj
             (List.map
                (fun ((m : metric), v) ->
                  (m.name, json_obj [ ("value", num v); ("unit", str m.unit) ]))
                values) );
       ]);
  if errors <> [] then exit 1

(* --- e2e: all four workloads, interleaved rounds (schema vw-bench/2) --- *)

type result = {
  w : W.t;
  groups : W.round list list;  (** the timed rounds, [subrounds] each *)
  all_rounds : W.round list;  (** warm-up and traced rounds too *)
  layers : (string * string * float) list;  (** [] without --trace *)
}

(* One e2e round of a workload is [subrounds] workload rounds (about 2.3 s)
   whose per-round values it reports by their median. Workload rounds go
   round-robin across workloads (A B C D A B C D ...) so host drift hits
   every workload alike. One traced workload round per workload follows,
   plus the recorder-off twin of echo_actions_rec. *)
let rounds = 7
let subrounds = 5
let warm_group = -1
let traced_group = -2

let collect ~seed ~rounds ~size_of ~trace =
  let runs = Hashtbl.create 8 in
  let pass ~group ~traced =
    List.iter
      (fun (w : W.t) ->
        let rs = run_round w ~seed ~size:(size_of w) ~traced in
        let prev = Option.value ~default:[] (Hashtbl.find_opt runs w.name) in
        Hashtbl.replace runs w.name ((group, rs) :: prev))
      W.all
  in
  for _ = 1 to warmups do
    pass ~group:warm_group ~traced:false
  done;
  for g = 0 to rounds - 1 do
    for _ = 1 to subrounds do
      pass ~group:g ~traced:false
    done
  done;
  if trace then begin
    T.keep_raw_spans ();
    pass ~group:traced_group ~traced:true
  end;
  let twin =
    if trace then
      Some
        (run_round W.echo_actions_norec ~seed
           ~size:(size_of W.echo_actions_norec) ~traced:true)
    else None
  in
  List.map
    (fun (w : W.t) ->
      let rs = List.rev (Hashtbl.find runs w.name) in
      let in_group g =
        List.filter_map (fun (g', (r, _)) -> if g' = g then Some r else None) rs
      in
      let groups = List.init rounds in_group in
      let layers =
        match List.assoc_opt traced_group rs with
        | None -> []
        | Some traced ->
            layer_metrics ~untraced:(List.concat groups) traced
              ~twin:(if w.name = W.echo_actions_rec.name then twin else None)
      in
      { w; groups; all_rounds = List.map (fun (_, (r, _)) -> r) rs; layers })
    W.all

let render_json ~seed ~rounds ~total_s results =
  let workload r =
    let errors = check_rounds r.all_rounds in
    let total f =
      List.fold_left (fun a (x : W.round) -> a + f x) 0 (List.concat r.groups)
    in
    let attempted = total (fun x -> x.attempted) in
    let failed = total (fun x -> x.failed) in
    let metric (name, unit, a) =
      let q1, q3 = Stat.quartiles a in
      ( name,
        json_obj
          [
            ("unit", str unit);
            ("median", num (Stat.median a));
            ("q1", num q1);
            ("q3", num q3);
            ("n", string_of_int (Array.length a));
          ] )
    in
    let layer (n, u, v) = (n, json_obj [ ("unit", str u); ("value", num v) ]) in
    ( r.w.name,
      json_obj
        ([
           ("correct", string_of_bool (errors = []));
           ("attempted", string_of_int attempted);
           ("failed", string_of_int failed);
           ("fail_ratio", num (float_of_int failed /. float_of_int attempted));
           ("errors", "[" ^ String.concat ", " (List.map str errors) ^ "]");
           ( "metrics",
             json_obj (List.map metric (end_to_end_samples r.groups)) );
         ]
        @
        if r.layers = [] then []
        else [ ("layers", json_obj (List.map layer r.layers)) ]) )
  in
  json_obj
    [
      ("schema", str "vw-bench/2");
      ("seed", string_of_int seed);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("rounds", string_of_int rounds);
      ("subrounds", string_of_int subrounds);
      ("ocaml", str Sys.ocaml_version);
      ("total_s", num total_s);
      ("workloads", json_obj (List.map workload results));
    ]

let print_table results =
  List.iter
    (fun r ->
      Printf.printf "\n== %s (%d rounds of %d) ==\n" r.w.name
        (List.length r.groups) subrounds;
      List.iter
        (fun (name, unit, a) ->
          let q1, q3 = Stat.quartiles a in
          Printf.printf "  %-20s %14.6g %-5s  [q1 %.6g, q3 %.6g]\n" name
            (Stat.median a) unit q1 q3)
        (end_to_end_samples r.groups);
      List.iter
        (fun e -> Printf.printf "  CHECK FAILED: %s\n" e)
        (check_rounds r.all_rounds);
      if r.layers <> [] then begin
        Printf.printf "  -- per layer (traced round) --\n";
        List.iter
          (fun (n, u, v) -> Printf.printf "  %-36s %14.6g %s\n" n v u)
          r.layers
      end)
    results

let e2e_mode ~seed ~json ~trace_file =
  let t0 = T.now_ns () in
  let results =
    collect ~seed ~rounds
      ~size_of:(fun w -> w.W.size)
      ~trace:(trace_file <> None)
  in
  let total_s = float_of_int (T.now_ns () - t0) /. 1e9 in
  Option.iter
    (fun path ->
      let buf = Buffer.create (1 lsl 20) in
      T.chrome_trace buf;
      Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf);
      Printf.eprintf "wrote %d spans to %s\n" !T.raw_n path)
    trace_file;
  if json then print_endline (render_json ~seed ~rounds ~total_s results)
  else begin
    print_table results;
    Printf.printf "\ntotal %.1f s, seed %d\n" total_s seed
  end;
  if List.exists (fun r -> check_rounds r.all_rounds <> []) results then exit 1

(* --- compare: spread-aware verdicts (writes vw-bench-delta/1) --- *)

let compare_mode ~old_path ~new_path ~out =
  let spec = load_spec () in
  let load path =
    let doc = read_json path in
    if Option.bind (Json.mem "schema" doc) Json.to_string <> Some "vw-bench/2"
    then fail "%s: not a vw-bench/2 document" path;
    doc
  in
  let old_doc = load old_path and new_doc = load new_path in
  let flt doc path = Option.bind (member doc path) Json.to_float in
  let rows w =
    let metric_row (m : metric) =
      let at doc k = flt doc [ "workloads"; w; "metrics"; m.name; k ] in
      match (at old_doc "median", at new_doc "median") with
      | Some o, Some n when o <> 0.0 && n <> 0.0 ->
          let iqr doc =
            Option.value ~default:0.0 (at doc "q3")
            -. Option.value ~default:0.0 (at doc "q1")
          in
          (* positive = worse, as a share of the old median *)
          let worse = (if m.better = "higher" then o -. n else n -. o) /. o in
          let spread =
            Float.max (iqr old_doc /. Float.abs o) (iqr new_doc /. Float.abs n)
          in
          let beyond_noise = Float.abs (n -. o) > iqr old_doc in
          let verdict =
            if spread > m.bound then "unresolved"
            else if worse > m.bound && beyond_noise then "regressed"
            else if -.worse > m.bound && beyond_noise then "improved"
            else "ok"
          in
          Some (w ^ "." ^ m.name, o, n, (n -. o) /. o *. 100.0, verdict)
      | _ -> None
    in
    let failed doc =
      Option.value ~default:0.0 (flt doc [ "workloads"; w; "failed" ])
    in
    List.filter_map metric_row spec.end_to_end
    @ [
        ( w ^ ".failed",
          failed old_doc,
          failed new_doc,
          0.0,
          if failed new_doc > 0.0 then "regressed" else "ok" );
      ]
  in
  let workloads =
    Option.fold ~none:[] ~some:Json.obj_keys (member old_doc [ "workloads" ])
  in
  let rows = List.concat_map rows workloads in
  List.iter
    (fun (name, o, n, pct, verdict) ->
      Printf.printf "%-40s %14.6g -> %14.6g  %+7.2f%%  %s\n" name o n pct
        verdict)
    rows;
  Option.iter
    (fun path ->
      let row (name, o, n, pct, verdict) =
        json_obj
          [
            ("metric", str name);
            ("old", num o);
            ("new", num n);
            ("delta_pct", num pct);
            ("verdict", str verdict);
          ]
      in
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc
            "{\"schema\":\"vw-bench-delta/1\",\"metrics\":[\n%s\n]}\n"
            (String.concat ",\n" (List.map row rows))))
    out;
  if List.exists (fun (_, _, _, _, v) -> v = "regressed") rows then exit 1

(* --- selftest: every workload at a tiny size --- *)

let selftest () =
  progress := false;
  let spec = load_spec () in
  let tiny (w : W.t) = if w.name = W.conform_corpus.name then 1 else 320 in
  let results = collect ~seed:7 ~rounds:1 ~size_of:tiny ~trace:true in
  let doc = render_json ~seed:7 ~rounds:1 ~total_s:0.0 results in
  let buf = Buffer.create 65536 in
  T.chrome_trace buf;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.parse (Buffer.contents buf) with
  | Ok j when Option.bind (Json.mem "traceEvents" j) Json.to_list <> Some [] ->
      ()
  | _ -> problem "the Chrome trace is not valid JSON with events");
  (match Json.parse doc with
  | Error e -> problem "vw-bench/2 output is not JSON: %s" e
  | Ok j ->
      List.iter
        (fun r ->
          let w = r.w.name in
          let expect section (ms : metric list) =
            List.iter
              (fun (m : metric) ->
                if member j [ "workloads"; w; section; m.name ] = None then
                  problem "%s: no %s" w m.name)
              ms
          in
          expect "metrics" spec.end_to_end;
          expect "layers" spec.per_layer)
        results);
  List.iter
    (fun r ->
      List.iter (problem "%s: %s" r.w.name) (check_rounds r.all_rounds);
      match
        List.find_opt (fun (n, _, _) -> n = "trace.coverage_pct") r.layers
      with
      | Some (_, _, c) when Float.abs (c -. 100.0) <= 1.0 -> ()
      | Some (_, _, c) ->
          problem "%s: span self times cover %.2f%% of the traced wall time"
            r.w.name c
      | None -> problem "%s: no trace.coverage_pct" r.w.name)
    results;
  match !problems with
  | [] -> print_endline "e2ebench selftest: ok"
  | ps ->
      List.iter (Printf.printf "e2ebench selftest: %s\n") (List.rev ps);
      exit 1

(* --- command line --- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let int_opt key ~default =
    match opt key args with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> fail "%s expects an integer, got %S" key v)
  in
  match args with
  | "run" :: _ ->
      let workload =
        match opt "--workload" args with
        | Some w -> w
        | None -> fail "run needs --workload"
      in
      run_mode ~workload
        ~seed:(int_opt "--seed" ~default:42)
        ~seconds:(int_opt "--seconds" ~default:30)
        ~trace:(int_opt "--trace" ~default:0 <> 0)
  | "e2e" :: _ ->
      e2e_mode
        ~seed:(int_opt "--seed" ~default:42)
        ~json:(List.mem "--json" args) ~trace_file:(opt "--trace" args)
  | [ "compare"; old_path; new_path ] ->
      compare_mode ~old_path ~new_path ~out:None
  | [ "compare"; old_path; new_path; "--out"; out ] ->
      compare_mode ~old_path ~new_path ~out:(Some out)
  | [ "selftest" ] -> selftest ()
  | _ ->
      fail
        "usage: main.exe (e2e --seed N [--json] [--trace FILE] | compare OLD \
         NEW [--out FILE] | run --workload W --seed N --seconds S --trace 0|1 \
         | selftest)"
