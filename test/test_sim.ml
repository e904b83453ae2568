(* Tests for the discrete-event engine: ordering, run bounds, stop. *)

open Vw_sim

let check = Alcotest.check
let qtest = Test_seed.qtest

let test_time_units () =
  check Alcotest.int "ms" 1_000_000 (Simtime.ms 1);
  check Alcotest.int "us" 1_000 (Simtime.us 1);
  check Alcotest.int "sec" 1_500_000_000 (Simtime.sec 1.5);
  check Alcotest.int "jiffy" (Simtime.ms 10) Simtime.jiffy;
  check (Alcotest.float 1e-12) "to_sec" 0.25 (Simtime.to_sec (Simtime.ms 250))

let test_event_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  Engine.schedule_at engine ~time:(Simtime.ms 30) (record "c");
  Engine.schedule_at engine ~time:(Simtime.ms 10) (record "a");
  Engine.schedule_at engine ~time:(Simtime.ms 20) (record "b");
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "chronological" [ "a"; "b"; "c" ]
    (List.rev !log);
  check Alcotest.int "clock at last event" (Simtime.ms 30) (Engine.now engine)

let test_fifo_ties () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule_at engine ~time:(Simtime.ms 5) (fun () ->
        log := i :: !log)
  done;
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "insertion order at equal time"
    [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_run_until () =
  let engine = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule_at engine ~time:(Simtime.ms (10 * i)) (fun () -> incr count)
  done;
  Engine.run engine ~until:(Simtime.ms 50);
  check Alcotest.int "only events <= until" 5 !count;
  check Alcotest.int "clock = until" (Simtime.ms 50) (Engine.now engine);
  Engine.run engine;
  check Alcotest.int "rest runs later" 10 !count

let test_schedule_from_callback () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule_at engine ~time:(Simtime.ms 1) (fun () ->
      log := "outer" :: !log;
      Engine.schedule_after engine ~delay:(Simtime.ms 1) (fun () ->
          log := "inner" :: !log));
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "nested scheduling" [ "outer"; "inner" ]
    (List.rev !log);
  check Alcotest.int "clock advanced" (Simtime.ms 2) (Engine.now engine)

let test_past_schedule_clamps () =
  let engine = Engine.create () in
  let when_fired = ref (-1) in
  Engine.schedule_at engine ~time:(Simtime.ms 10) (fun () ->
      Engine.schedule_at engine ~time:(Simtime.ms 3) (fun () ->
          when_fired := Engine.now engine));
  Engine.run engine;
  check Alcotest.int "past events run now, not before" (Simtime.ms 10) !when_fired

let test_stop () =
  let engine = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule_after engine ~delay:(Simtime.ms 1) (fun () ->
        incr count;
        if !count = 3 then Engine.stop engine)
  done;
  Engine.run engine;
  check Alcotest.int "stopped early" 3 !count

let test_prng_streams_differ () =
  let engine = Engine.create () in
  let a = Engine.prng engine and b = Engine.prng engine in
  check Alcotest.bool "distinct component streams" true
    (Vw_util.Prng.bits64 a <> Vw_util.Prng.bits64 b)

let prop_events_fire_in_time_order =
  QCheck.Test.make ~name:"random schedules fire chronologically" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 100) (int_bound 10_000))
    (fun delays ->
      let engine = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          Engine.schedule_at engine ~time:(Simtime.us d) (fun () ->
              fired := Engine.now engine :: !fired))
        delays;
      Engine.run engine;
      let times = List.rev !fired in
      List.length times = List.length delays
      && List.sort compare times = times)

(* model-based test of the event queue: a random push/pop trace must agree
   with a naive sorted-list reference implementation *)
let prop_event_queue_matches_model =
  QCheck.Test.make ~name:"event queue agrees with a list model" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 80)
        (oneof [ map (fun t -> `Push (abs t mod 1000)) int; always `Pop ]))
    (fun ops ->
      let queue = Event_queue.create () in
      (* model: (time, id) pairs sorted by time, then id; ids grow with
         insertion, so equal times stay FIFO *)
      let model = ref [] in
      let next_id = ref 0 in
      let pop_model () =
        match !model with
        | [] -> None
        | e :: rest ->
            model := rest;
            Some e
      in
      let step = function
        | `Push time ->
            let id = !next_id in
            incr next_id;
            Event_queue.push queue ~time id;
            model := List.merge compare !model [ (time, id) ];
            true
        | `Pop -> Event_queue.pop queue = pop_model ()
      in
      let rec drain () =
        let popped = Event_queue.pop queue in
        popped = pop_model () && (popped = None || drain ())
      in
      List.for_all
        (fun op ->
          step op && Event_queue.length queue = List.length !model)
        ops
      && drain ())

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time units" `Quick test_time_units;
        Alcotest.test_case "chronological order" `Quick test_event_order;
        Alcotest.test_case "FIFO tie-break" `Quick test_fifo_ties;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "schedule from callback" `Quick test_schedule_from_callback;
        Alcotest.test_case "past schedule clamps to now" `Quick test_past_schedule_clamps;
        Alcotest.test_case "stop" `Quick test_stop;
        Alcotest.test_case "prng streams differ" `Quick test_prng_streams_differ;
        qtest prop_events_fire_in_time_order;
        qtest prop_event_queue_matches_model;
      ] );
  ]
