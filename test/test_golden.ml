(* Golden-output tests for the vwctl CLI.

   Each case runs the real binary against an embedded script and compares
   stdout with a snapshot under [test/golden/]. Comparison is normalized —
   lines trimmed, blanks dropped, then sorted — so incidental ordering or
   whitespace drift does not fail the test, while any value change does.
   On mismatch the full actual output is printed; paste it over the golden
   file (and review the diff) to re-bless. *)

let vwctl = Filename.concat (Filename.concat ".." "bin") "vwctl.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cmd args =
  let out = Filename.temp_file "vwctl_golden" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>/dev/null" vwctl args (Filename.quote out)
      in
      let rc = Sys.command cmd in
      (rc, read_file out))

let normalize s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> List.sort compare

let check_golden ?(expect_rc = 0) ~golden ~args () =
  let rc, actual = run_cmd args in
  if rc <> expect_rc then
    Alcotest.failf "vwctl %s: exit code %d (wanted %d)" args rc expect_rc;
  let path = Filename.concat "golden" golden in
  let expected =
    try read_file path
    with Sys_error e -> Alcotest.failf "missing golden file %s: %s" path e
  in
  if normalize actual <> normalize expected then
    Alcotest.failf
      "vwctl %s drifted from golden/%s.@.--- actual ---@.%s@.--- expected \
       ---@.%s"
      args golden actual expected

(* Not a snapshot: the binary capture exported back to JSONL must be
   byte-identical to a direct JSONL capture of the same run, and both
   event files must drive vwctl cover to byte-identical output. *)
let check_export_parity () =
  let tmp suffix = Filename.temp_file "vwctl_events" suffix in
  let j = tmp ".jsonl" and b = tmp ".bin" and x = tmp ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ j; b; x ])
    (fun () ->
      let run args =
        let rc, _ = run_cmd args in
        if rc <> 0 then Alcotest.failf "vwctl %s: exit code %d" args rc
      in
      let base = "run quickstart -w udp-ping -b 6400 -d 2 --events" in
      run (Printf.sprintf "%s %s" base (Filename.quote j));
      run
        (Printf.sprintf "%s %s --events-format bin" base (Filename.quote b));
      run
        (Printf.sprintf "events export %s -o %s" (Filename.quote b)
           (Filename.quote x));
      if read_file j <> read_file x then
        Alcotest.fail "exported JSONL differs from direct --events capture";
      let cover events =
        let args =
          Printf.sprintf "cover quickstart -w udp-ping --events %s"
            (Filename.quote events)
        in
        let rc, out = run_cmd args in
        if rc <> 0 then Alcotest.failf "vwctl %s: exit code %d" args rc;
        out
      in
      if cover j <> cover b then
        Alcotest.fail "cover differs between JSONL and binary event input")

(* An event log read from a pipe, which cannot seek, must drive vwctl
   cover exactly as the same log read from a file; a directory is an
   error that says so. *)
let check_events_from_pipe () =
  let j = Filename.temp_file "vwctl_events" ".jsonl"
  and piped = Filename.temp_file "vwctl_cover" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ j; piped ])
    (fun () ->
      let rc, _ =
        run_cmd
          (Printf.sprintf "run quickstart -w udp-ping -b 6400 -d 2 --events %s"
             (Filename.quote j))
      in
      if rc <> 0 then Alcotest.failf "vwctl run: exit code %d" rc;
      let cover = "cover quickstart --json -w udp-ping -b 6400 -d 2 --events" in
      let rc, from_file =
        run_cmd (Printf.sprintf "%s %s" cover (Filename.quote j))
      in
      if rc <> 0 then Alcotest.failf "vwctl cover (file): exit code %d" rc;
      let rc =
        Sys.command
          (Printf.sprintf "cat %s | %s %s /dev/stdin > %s 2>/dev/null"
             (Filename.quote j) vwctl cover (Filename.quote piped))
      in
      Alcotest.(check int) "vwctl cover (pipe): exit code" 0 rc;
      Alcotest.(check string) "pipe and file give the same coverage" from_file
        (read_file piped);
      match Vw_report.Events_io.load (Filename.get_temp_dir_name ()) with
      | Error e when e = "Is a directory" -> ()
      | Error e -> Alcotest.failf "a directory reported %S" e
      | Ok _ -> Alcotest.fail "a directory loaded as an event log")

(* Not a snapshot either: the digest of a whole output file, which the
   run writes to the path that follows [output] on its command line. A
   capture pins every byte each node put on or took off the wire (generated
   payloads are zero-filled, so it is the same on every run); a binary
   event log pins every step of every cascade, in order. *)
let check_digest ~args ~output ~digest () =
  let file = Filename.temp_file "vwctl_output" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let args =
        Printf.sprintf "%s %s %s" args output (Filename.quote file)
      in
      let rc, _ = run_cmd args in
      if rc <> 0 then Alcotest.failf "vwctl %s: exit code %d" args rc;
      Alcotest.check Alcotest.string "output digest" digest
        (Digest.to_hex (Digest.file file)))

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "vwctl explain quickstart --rule 1" `Quick
          (check_golden ~golden:"explain_quickstart_rule1.txt"
             ~args:"explain quickstart --rule 1 -w udp-ping -b 6400 -d 2");
        Alcotest.test_case "vwctl cover quickstart --json" `Quick
          (check_golden ~golden:"cover_quickstart.json"
             ~args:"cover quickstart --json -w udp-ping -b 6400 -d 2");
        Alcotest.test_case "vwctl run quickstart --stats-json" `Quick
          (check_golden ~golden:"run_quickstart_stats.json"
             ~args:"run quickstart -w udp-ping -b 6400 -d 2 --stats-json");
        Alcotest.test_case "vwctl conform --json (pass)" `Quick
          (check_golden ~golden:"conform_pass.json"
             ~args:"conform conformance/inject_probe.fsl --json");
        Alcotest.test_case "vwctl conform --json (tolerance miss)" `Quick
          (check_golden ~expect_rc:2 ~golden:"conform_tolerance_miss.json"
             ~args:"conform conformance/failing/tolerance_miss.fsl --json");
        Alcotest.test_case "vwctl conform --json (never arrived)" `Quick
          (check_golden ~expect_rc:2 ~golden:"conform_missed.json"
             ~args:"conform conformance/failing/never_arrived.fsl --json");
        Alcotest.test_case "binary capture exports identical JSONL" `Quick
          check_export_parity;
        Alcotest.test_case "vwctl run --pcap wire bytes" `Quick
          (check_digest ~args:"run quickstart -w udp-ping -b 640 -d 2"
             ~output:"--pcap" ~digest:"00a50e5b1aac2ed9f262fb249630e2c4");
        Alcotest.test_case "vwctl run --rll --pcap wire bytes" `Quick
          (check_digest
             ~args:"run quickstart -w udp-ping -b 640 -d 2 --rll"
             ~output:"--pcap" ~digest:"4b1fa3b166e34f54fbb002412b55b25b");
        Alcotest.test_case "vwctl run figure5 binary event log" `Quick
          (check_digest
             ~args:
               "run figure5 --workload tcp-stream --bytes 200000 \
                --max-duration 10 --events-format bin"
             ~output:"--events" ~digest:"48228901993300284e09a2c5870e108e");
        Alcotest.test_case "cover reads an event log from a pipe" `Quick
          check_events_from_pipe;
      ] );
  ]
