(* The vw_exec execution layer: the executor's jobs=1 / jobs=N
   byte-determinism contract, crash containment, the index-order reducer
   under adversarial completion orders (qcheck), and end-to-end CLI
   byte-identity of suite and fuzz campaigns at --jobs 1 vs --jobs 4. *)

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

let ints_t = Alcotest.(list (result int string))

(* jobs report their index and whether they passed; a campaign stops at
   the first that did not, or at the first crash *)
let verdicts_t = Alcotest.(list (result (pair int bool) string))
let failed = function Ok (_, pass) -> not pass | Error _ -> true

(* --- executor basics --- *)

let square i = i * i

let test_jobs_levels_agree () =
  let seq = Executor.map ~jobs:1 9 square in
  let par = Executor.map ~jobs:4 9 square in
  Alcotest.check ints_t "index order" (List.init 9 (fun i -> Ok (i * i))) seq;
  Alcotest.check ints_t "same results" seq par;
  Alcotest.check ints_t "an empty campaign" []
    (Executor.map ~jobs:4 0 square);
  match Executor.map (-1) square with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a negative count should raise Invalid_argument"

let crash_at_3 i = if i = 3 then failwith "boom" else i

(* job 3 is an [Error] carrying the exception; every other job is [Ok i] *)
let check_crash_only_at_3 n rs =
  Alcotest.(check int) "campaign not aborted" n (List.length rs);
  List.iteri
    (fun i r ->
      match (i, r) with
      | 3, Error msg ->
          if not (contains ~sub:"boom" msg) then
            Alcotest.failf "crash message %S lost the exception" msg
      | 3, Ok _ -> Alcotest.fail "job 3 should crash"
      | i, Ok v when v = i -> ()
      | i, _ -> Alcotest.failf "job %d should pass" i)
    rs

let test_crash_is_per_job () =
  List.iter
    (fun jobs ->
      check_crash_only_at_3 6 (Executor.map ~jobs 6 crash_at_3))
    [ 1; 4 ]

let test_stop_skips_rest () =
  let started = Array.make 8 false in
  let rs =
    Executor.map ~jobs:1 ~stop:failed 8 (fun i ->
        started.(i) <- true;
        (i, i <> 2))
  in
  Alcotest.check verdicts_t "cut after first failure"
    [ Ok (0, true); Ok (1, true); Ok (2, false) ]
    rs;
  (* sequentially, jobs beyond the cut must never have started *)
  Alcotest.(check bool) "job 7 never ran" false started.(7)

let test_stop_parallel_same_prefix () =
  let pass i = (i, i <> 2) in
  let seq = Executor.map ~jobs:1 ~stop:failed 8 pass in
  let par = Executor.map ~jobs:4 ~stop:failed 8 pass in
  Alcotest.check verdicts_t "same truncated results" seq par

(* --- every map runs on [jobs] distinct domains --- *)

(* A job that records the domain it runs on, then waits until [k] distinct
   domains have arrived or the process has spent 5 more CPU seconds; it
   returns how many it saw. With [chunk = 1] a waiting job holds its
   worker, so [k] jobs can only all see [k] if [k] domains ran them. *)
let rendezvous k =
  let seen = Atomic.make [] in
  let rec arrive d =
    let ds = Atomic.get seen in
    if not (List.mem d ds || Atomic.compare_and_set seen ds (d :: ds)) then
      arrive d
  in
  let deadline = Sys.time () +. 5.0 in
  fun _ ->
    arrive (Domain.self () :> int);
    while List.length (Atomic.get seen) < k && Sys.time () < deadline do
      Domain.cpu_relax ()
    done;
    List.length (Atomic.get seen)

let test_spawned_workers () =
  Alcotest.check ints_t "jobs=3 runs on 3 domains, whatever the host"
    [ Ok 3; Ok 3; Ok 3 ]
    (Executor.map ~jobs:3 ~chunk:1 3 (rendezvous 3));
  Alcotest.check ints_t "a second map at jobs=2 runs on 2 domains"
    [ Ok 2; Ok 2 ]
    (Executor.map ~jobs:2 ~chunk:1 2 (rendezvous 2))

(* --- chunked scheduling is a pure scheduling knob --- *)

let test_chunk_byte_identity () =
  let baseline = Executor.map ~jobs:1 23 square in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          Alcotest.check ints_t
            (Printf.sprintf "jobs=%d chunk=%d agrees" jobs chunk)
            baseline
            (Executor.map ~jobs ~chunk 23 square))
        [ 1; 2; 3; 7; 64 ])
    [ 1; 2; 4 ]

let test_chunk_stop_identity () =
  let pass i = (i, i <> 5) in
  let seq = Executor.map ~jobs:1 ~stop:failed 17 pass in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          Alcotest.check verdicts_t
            (Printf.sprintf "cut identical at jobs=%d chunk=%d" jobs chunk)
            seq
            (Executor.map ~jobs ~chunk ~stop:failed 17 pass))
        [ 1; 3; 8; 32 ])
    [ 2; 4 ]

(* a crash mid-chunk must not take down the rest of the holder's span *)
let test_crash_inside_chunk () =
  List.iter
    (fun chunk ->
      check_crash_only_at_3 12
        (Executor.map ~jobs:2 ~chunk 12 crash_at_3))
    [ 4; 6; 64 ]

let test_auto_chunk_bounds () =
  Alcotest.(check int) "mid-size campaign" 16 (Executor.auto_chunk ~jobs:4 256);
  Alcotest.(check int) "tiny campaign floors at 1" 1
    (Executor.auto_chunk ~jobs:2 8);
  Alcotest.(check int) "huge campaign caps at 32"
    32
    (Executor.auto_chunk ~jobs:1 100_000)

(* --- the reducer alone --- *)

let test_reduce_rejects_bad_input () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Executor.reduce 3 [ (0, Ok true); (2, Ok true) ]);
  raises (fun () -> Executor.reduce 2 [ (0, Ok true); (0, Ok true) ]);
  raises (fun () -> Executor.reduce 1 [ (5, Ok true) ])

(* qcheck: whatever order results complete in, the reducer returns the
   index-order prefix cut at the earliest failing index *)
let reducer_order_prop =
  QCheck.Test.make ~count:200
    ~name:"reducer is completion-order independent"
    QCheck.(pair (int_range 1 20) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let pass = Array.init n (fun _ -> Random.State.bool st) in
      let arr =
        Array.init n (fun i ->
            (i, if pass.(i) then Ok i else Error (string_of_int i)))
      in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let reduced =
        Executor.reduce ~stop:Result.is_error n (Array.to_list arr)
      in
      let rec expected i =
        if i >= n then []
        else if pass.(i) then Ok i :: expected (i + 1)
        else [ Error (string_of_int i) ]
      in
      reduced = expected 0)

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
          test_stop_skips_rest;
        Alcotest.test_case "stop_after truncates identically in parallel"
          `Quick test_stop_parallel_same_prefix;
        Alcotest.test_case "pool reuses workers across plans" `Quick
          test_spawned_workers;
        Alcotest.test_case "chunk size never changes the outcome list" `Quick
          test_chunk_byte_identity;
        Alcotest.test_case "chunked stop_after cuts identically" `Quick
          test_chunk_stop_identity;
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
