(* The vw_exec execution layer: the executor's jobs=1 / jobs=N
   byte-determinism contract, crash containment, the plan-order reducer
   under adversarial completion orders (qcheck), and end-to-end CLI
   byte-identity of suite and fuzz campaigns at --jobs 1 vs --jobs 4. *)

module Outcome = Vw_exec.Outcome
module Job = Vw_exec.Job
module Plan = Vw_exec.Plan
module Executor = Vw_exec.Executor
module Suite = Vw_core.Suite

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* first occurrence only — enough for flipping one directive *)
let replace ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let rec find i = if i + n > m then None else if String.sub s i n = sub then Some i else find (i + 1) in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (m - i - n)

let shape (o : _ Outcome.t) =
  (o.Outcome.index, o.Outcome.label, Outcome.verdict_name o.Outcome.verdict)

let shape_t = Alcotest.(list (triple int string string))

(* --- executor basics --- *)

(* The implicit-pool path caps parallelism at the host's core count; these
   tests must exercise real worker domains even on a 1-core runner, so
   they pass the global pool explicitly (joined by its at_exit hook). *)
let pool = Vw_exec.Pool.global ()

let square_plan n =
  Plan.init n (fun i ->
      Job.v ~label:(Printf.sprintf "sq-%d" i) (fun () ->
          Job.result ~verdict:`Pass (i * i)))

let test_jobs_levels_agree () =
  let seq = Executor.run ~jobs:1 (square_plan 9) in
  let par = Executor.run ~pool ~jobs:4 (square_plan 9) in
  Alcotest.check shape_t "same outcomes" (List.map shape seq)
    (List.map shape par);
  List.iter2
    (fun (a : _ Outcome.t) (b : _ Outcome.t) ->
      Alcotest.(check (option int)) "same payload" a.Outcome.payload
        b.Outcome.payload)
    seq par;
  Alcotest.(check (list int))
    "plan order"
    (List.init 9 (fun i -> i))
    (List.map (fun (o : _ Outcome.t) -> o.Outcome.index) seq)

let crash_plan n =
  Plan.init n (fun i ->
      Job.v ~label:(Printf.sprintf "j%d" i) (fun () ->
          if i = 3 then failwith "boom";
          Job.result ~verdict:`Pass i))

let test_crash_is_per_job () =
  List.iter
    (fun jobs ->
      let outs = Executor.run ~pool ~jobs (crash_plan 6) in
      Alcotest.(check int) "campaign not aborted" 6 (List.length outs);
      List.iter
        (fun (o : _ Outcome.t) ->
          match (o.Outcome.index, o.Outcome.verdict) with
          | 3, Outcome.Crash msg ->
              if not (contains ~sub:"boom" msg) then
                Alcotest.failf "crash message %S lost the exception" msg
          | 3, _ -> Alcotest.fail "job 3 should crash"
          | _, Outcome.Pass -> ()
          | i, _ -> Alcotest.failf "job %d should pass" i)
        outs)
    [ 1; 4 ]

let test_stop_after_skips_rest () =
  let started = Array.make 8 false in
  let plan =
    Plan.init 8 (fun i ->
        Job.v (fun () ->
            started.(i) <- true;
            Job.result ~verdict:(if i = 2 then `Fail else `Pass) i))
  in
  let outs =
    Executor.run ~jobs:1
      ~stop_after:(fun o -> not (Outcome.passed o))
      plan
  in
  Alcotest.(check int) "cut after first failure" 3 (List.length outs);
  (* sequentially, jobs beyond the cut must never have started *)
  Alcotest.(check bool) "job 7 never ran" false started.(7)

let test_stop_after_parallel_same_prefix () =
  let plan ()
      =
    Plan.init 8 (fun i ->
        Job.v ~label:(Printf.sprintf "j%d" i) (fun () ->
            Job.result ~verdict:(if i = 2 then `Fail else `Pass) i))
  in
  let stop o = not (Outcome.passed o) in
  let seq = Executor.run ~jobs:1 ~stop_after:stop (plan ()) in
  let par = Executor.run ~pool ~jobs:4 ~stop_after:stop (plan ()) in
  Alcotest.check shape_t "same truncated outcomes" (List.map shape seq)
    (List.map shape par)

(* --- persistent pool: workers are spawned once and reused --- *)

module Pool = Vw_exec.Pool

let test_pool_reuse_across_plans () =
  let pool = Pool.create () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let baseline = Executor.run ~jobs:1 (square_plan 12) in
      for _ = 1 to 5 do
        let par = Executor.run ~pool ~jobs:3 (square_plan 12) in
        Alcotest.check shape_t "pooled run agrees with sequential"
          (List.map shape baseline) (List.map shape par)
      done;
      let s = Pool.stats pool in
      Alcotest.(check int) "jobs=3 spawned exactly 2 workers" 2 s.Pool.spawned;
      Alcotest.(check int) "no domain leak across plans" 2 s.Pool.size;
      Alcotest.(check int) "five plans served" 5 s.Pool.runs;
      (* a deeper request grows the pool once; a shallower one reuses it *)
      ignore (Executor.run ~pool ~jobs:4 (square_plan 12));
      ignore (Executor.run ~pool ~jobs:2 (square_plan 12));
      let s = Pool.stats pool in
      Alcotest.(check int) "grown to 3 workers total" 3 s.Pool.spawned;
      Alcotest.(check int) "still 3 live" 3 s.Pool.size;
      Alcotest.(check int) "seven plans served" 7 s.Pool.runs);
  let s = Pool.stats pool in
  Alcotest.(check int) "shutdown joined every domain" 0 s.Pool.size

(* --- chunked scheduling is a pure scheduling knob --- *)

let test_chunk_byte_identity () =
  let baseline = Executor.run ~jobs:1 (square_plan 23) in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          let par = Executor.run ~pool ~jobs ~chunk (square_plan 23) in
          Alcotest.check shape_t
            (Printf.sprintf "jobs=%d chunk=%d agrees" jobs chunk)
            (List.map shape baseline) (List.map shape par);
          List.iter2
            (fun (a : _ Outcome.t) (b : _ Outcome.t) ->
              Alcotest.(check (option int)) "same payload" a.Outcome.payload
                b.Outcome.payload)
            baseline par)
        [ 1; 2; 3; 7; 64 ])
    [ 1; 2; 4 ]

let test_chunk_stop_after_identity () =
  let plan () =
    Plan.init 17 (fun i ->
        Job.v ~label:(Printf.sprintf "j%d" i) (fun () ->
            Job.result ~verdict:(if i = 5 then `Fail else `Pass) i))
  in
  let stop o = not (Outcome.passed o) in
  let seq = Executor.run ~jobs:1 ~stop_after:stop (plan ()) in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          let par = Executor.run ~pool ~jobs ~chunk ~stop_after:stop (plan ()) in
          Alcotest.check shape_t
            (Printf.sprintf "cut identical at jobs=%d chunk=%d" jobs chunk)
            (List.map shape seq) (List.map shape par))
        [ 1; 3; 8; 32 ])
    [ 2; 4 ]

(* a crash mid-chunk must not take down the rest of the holder's span *)
let test_crash_inside_chunk () =
  List.iter
    (fun chunk ->
      let outs = Executor.run ~pool ~jobs:2 ~chunk (crash_plan 12) in
      Alcotest.(check int) "all jobs reported" 12 (List.length outs);
      List.iter
        (fun (o : _ Outcome.t) ->
          match (o.Outcome.index, o.Outcome.verdict) with
          | 3, Outcome.Crash msg ->
              if not (contains ~sub:"boom" msg) then
                Alcotest.failf "crash message %S lost the exception" msg
          | 3, _ -> Alcotest.fail "job 3 should crash"
          | _, Outcome.Pass -> ()
          | i, _ -> Alcotest.failf "job %d should pass" i)
        outs)
    [ 4; 6; 64 ]

let test_auto_chunk_bounds () =
  Alcotest.(check int) "mid-size plan" 16 (Executor.auto_chunk ~jobs:4 256);
  Alcotest.(check int) "tiny plan floors at 1" 1 (Executor.auto_chunk ~jobs:2 8);
  Alcotest.(check int) "huge plan caps at 32"
    32
    (Executor.auto_chunk ~jobs:1 100_000)

(* --- the reducer alone --- *)

let mk_outcome ?(pass = true) i =
  {
    Outcome.index = i;
    label = Printf.sprintf "j%d" i;
    verdict = (if pass then Outcome.Pass else Outcome.Fail);
    payload = Some i;
  }

let test_reduce_rejects_bad_input () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () ->
      Executor.reduce ~plan_length:3 [ mk_outcome 0; mk_outcome 2 ]);
  raises (fun () ->
      Executor.reduce ~plan_length:2 [ mk_outcome 0; mk_outcome 0 ]);
  raises (fun () -> Executor.reduce ~plan_length:1 [ mk_outcome 5 ])

(* qcheck: whatever order outcomes complete in, the reducer returns the
   plan-order prefix cut at the earliest failing index *)
let reducer_order_prop =
  QCheck.Test.make ~count:200
    ~name:"reducer is completion-order independent"
    QCheck.(pair (int_range 1 20) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let pass = Array.init n (fun _ -> Random.State.bool st) in
      let arr = Array.init n (fun i -> mk_outcome ~pass:pass.(i) i) in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let reduced =
        Executor.reduce
          ~stop_after:(fun o -> not (Outcome.passed o))
          ~plan_length:n (Array.to_list arr)
      in
      let rec expected i =
        if i >= n then []
        else if pass.(i) then i :: expected (i + 1)
        else [ i ]
      in
      List.map (fun (o : _ Outcome.t) -> o.Outcome.index) reduced
      = expected 0)

(* --- Suite on the executor: worker crash is one failing case --- *)

let idle_case ~name ?expect () =
  Suite.case ~name ~script:Vw_scripts.udp_drop_dup
    ~max_duration:(Vw_sim.Simtime.ms 10)
    ?expect
    ~workload:(fun _ -> ())
    ()

let crashing_case =
  Suite.case ~name:"crasher" ~script:Vw_scripts.udp_drop_dup
    ~max_duration:(Vw_sim.Simtime.ms 10)
    ~workload:(fun _ -> failwith "kaboom")
    ()

let suite_shape (r : Suite.report) =
  List.map
    (fun (o : Suite.outcome) ->
      (o.Suite.o_name, o.Suite.o_ok, Result.is_error o.Suite.o_result))
    r.Suite.outcomes

let test_suite_worker_crash () =
  let cases = [ crashing_case; idle_case ~name:"survivor" () ] in
  let check (r : Suite.report) =
    Alcotest.(check int) "both cases reported" 2 (List.length r.Suite.outcomes);
    (match r.Suite.outcomes with
    | [ crash; ok ] ->
        Alcotest.(check bool) "crash case failed" false crash.Suite.o_ok;
        (match crash.Suite.o_result with
        | Error e when contains ~sub:"worker crashed" e -> ()
        | Error e -> Alcotest.failf "unexpected error detail %S" e
        | Ok _ -> Alcotest.fail "crash case should carry an Error");
        Alcotest.(check bool) "suite continued past the crash" true
          ok.Suite.o_ok
    | _ -> Alcotest.fail "expected two outcomes");
    Alcotest.(check int) "one failure" 1 r.Suite.failed
  in
  let seq = Suite.run ~jobs:1 cases in
  let par = Suite.run ~jobs:2 cases in
  check seq;
  check par;
  Alcotest.(check (list (triple string bool bool)))
    "jobs=1 and jobs=2 agree" (suite_shape seq) (suite_shape par)

(* --- CLI byte-identity: the acceptance criterion, end to end --- *)

let vwctl = Filename.concat (Filename.concat ".." "bin") "vwctl.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* stdout bytes + exit code; stderr is not part of the contract *)
let run_capture args =
  let out = Filename.temp_file "vw_exec_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>/dev/null" vwctl args (Filename.quote out)
      in
      let rc = Sys.command cmd in
      (rc, read_file out))

let check_identical ~label args_of_jobs =
  let rc1, out1 = run_capture (args_of_jobs 1) in
  let rc4, out4 = run_capture (args_of_jobs 4) in
  Alcotest.(check int) (label ^ ": same exit code") rc1 rc4;
  if not (String.equal out1 out4) then
    Alcotest.failf "%s: stdout differs between --jobs 1 and --jobs 4:@.%s@.vs@.%s"
      label out1 out4

let suite_dir = Filename.concat (Filename.concat ".." "scripts") "suite"

let test_cli_suite_identical () =
  check_identical ~label:"suite" (fun j ->
      Printf.sprintf "suite %s --jobs %d" suite_dir j)

let test_cli_fuzz_identical () =
  check_identical ~label:"fuzz" (fun j ->
      Printf.sprintf "fuzz --runs 40 --seed 7 --jobs %d" j)

(* a suite with a failing case: exit codes and report must match across
   jobs levels (satellite: no parallel exit-code drift) *)
let test_cli_failing_suite_parity () =
  let dir = Filename.temp_file "vw_failing_suite" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let src = read_file (Filename.concat suite_dir "02_udp_loss_window.fsl") in
      let flipped =
        (* the script recovers cleanly, so expecting failure must fail *)
        replace ~sub:"expect=pass" ~by:"expect=fail" src
      in
      write_file (Filename.concat dir "00_flipped.fsl") flipped;
      write_file (Filename.concat dir "01_ok.fsl") src;
      let rc1, out1 = run_capture (Printf.sprintf "suite %s --jobs 1" dir) in
      let rc2, out2 = run_capture (Printf.sprintf "suite %s --jobs 2" dir) in
      Alcotest.(check int) "failing suite exits 2 sequentially" 2 rc1;
      Alcotest.(check int) "failing suite exits 2 in parallel" 2 rc2;
      if not (String.equal out1 out2) then
        Alcotest.failf "failing-suite report differs:@.%s@.vs@.%s" out1 out2)

(* --jobs must not leak into campaign artifacts either *)
let test_cli_campaign_json_identical () =
  let go jobs =
    run_capture
      (Printf.sprintf "suite %s --jobs %d --stats-json" suite_dir jobs)
  in
  let rc1, out1 = go 1 in
  let rc4, out4 = go 4 in
  Alcotest.(check int) "same exit code" rc1 rc4;
  Alcotest.(check string) "same vw-campaign/1 bytes" out1 out4;
  match Vw_report.Json.parse out1 with
  | Error e -> Alcotest.failf "campaign summary is not valid JSON: %s" e
  | Ok json ->
      Alcotest.(check (option string))
        "schema" (Some "vw-campaign/1")
        (Option.bind (Vw_report.Json.mem "schema" json) Vw_report.Json.to_string);
      Alcotest.(check (option int))
        "all three cases counted" (Some 3)
        (Option.bind (Vw_report.Json.mem "total" json) Vw_report.Json.to_int)

let suite =
  [
    ( "exec",
      [
        Alcotest.test_case "jobs=1 and jobs=4 outcomes agree" `Quick
          test_jobs_levels_agree;
        Alcotest.test_case "a raising job crashes alone" `Quick
          test_crash_is_per_job;
        Alcotest.test_case "stop_after skips later jobs sequentially" `Quick
          test_stop_after_skips_rest;
        Alcotest.test_case "stop_after truncates identically in parallel"
          `Quick test_stop_after_parallel_same_prefix;
        Alcotest.test_case "pool reuses workers across plans" `Quick
          test_pool_reuse_across_plans;
        Alcotest.test_case "chunk size never changes the outcome list" `Quick
          test_chunk_byte_identity;
        Alcotest.test_case "chunked stop_after cuts identically" `Quick
          test_chunk_stop_after_identity;
        Alcotest.test_case "a crash mid-chunk spares the rest of the chunk"
          `Quick test_crash_inside_chunk;
        Alcotest.test_case "auto_chunk stays within [1, 32]" `Quick
          test_auto_chunk_bounds;
        Alcotest.test_case "reducer rejects missing/duplicate/out-of-range"
          `Quick test_reduce_rejects_bad_input;
        Test_seed.qtest reducer_order_prop;
        Alcotest.test_case "suite reports a worker crash as one failing case"
          `Quick test_suite_worker_crash;
      ] );
    ( "exec.cli",
      [
        Alcotest.test_case "suite --jobs 1 vs 4 byte-identical" `Slow
          test_cli_suite_identical;
        Alcotest.test_case "fuzz --jobs 1 vs 4 byte-identical" `Slow
          test_cli_fuzz_identical;
        Alcotest.test_case "failing suite: exit codes match across jobs" `Slow
          test_cli_failing_suite_parity;
        Alcotest.test_case "campaign JSON byte-identical and well-formed"
          `Slow test_cli_campaign_json_identical;
      ] );
  ]
