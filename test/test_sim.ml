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

(* model-based test of the event queue: a random push/take trace must
   agree with a naive sorted-list reference implementation. Traces are
   push-biased, so the queue grows past its first capacity and reuses the
   cells that takes freed, and draw from few times, so ties are common. *)
let prop_event_queue_matches_model =
  QCheck.Test.make ~name:"event queue agrees with a list model" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (frequency
           [ (3, map (fun t -> `Push (abs t mod 8)) int); (1, always `Take) ]))
    (fun ops ->
      let queue = Event_queue.create ~dummy:(-1) () in
      (* model: (time, id) pairs sorted by time, then id; ids grow with
         insertion, so equal times stay FIFO *)
      let model = ref [] in
      let next_id = ref 0 in
      let take_agrees () =
        match !model with
        | [] -> (
            match Event_queue.take queue with
            | exception Invalid_argument _ -> true
            | _ -> false)
        | ((time, _) as e) :: rest ->
            model := rest;
            let top = Event_queue.top_time queue in
            top = time && (top, Event_queue.take queue) = e
      in
      let step = function
        | `Push time ->
            let id = !next_id in
            incr next_id;
            Event_queue.push queue ~time id;
            model := List.merge compare !model [ (time, id) ];
            true
        | `Take -> take_agrees ()
      in
      let rec drain () =
        let empty = !model = [] in
        take_agrees () && (empty || drain ())
      in
      List.for_all
        (fun op -> step op && Event_queue.length queue = List.length !model)
        ops
      && drain ()
      && Event_queue.length queue = 0)

(* 64 chains, each rescheduling itself with delays of 0-3 us, so many
   events share an instant. The engine must fire them in exactly the
   (time, scheduling order) of a sorted reference, drain to nothing, and
   keep no fired callback alive: each chain's callbacks hold one buffer,
   which must be collectable once the chain has finished. *)
let test_chains_fire_in_order () =
  let engine = Engine.create () in
  let chains = 64 and rounds = 50 in
  let next_seq = ref 0 and fired = ref [] in
  let buffers = Weak.create chains in
  let schedule ~delay fn =
    let seq = !next_seq in
    incr next_seq;
    Engine.schedule_after engine ~delay (fn seq)
  in
  let rec link c k buf seq () =
    fired := (Engine.now engine, seq) :: !fired;
    if k < rounds then
      schedule ~delay:(Simtime.us (((c * 7) + k) mod 4)) (link c (k + 1) buf)
  in
  for c = 0 to chains - 1 do
    let buf = Bytes.make 64 'x' in
    Weak.set buffers c (Some buf);
    schedule ~delay:(Simtime.us (c mod 3)) (link c 1 buf)
  done;
  Engine.run engine;
  let fired = List.rev !fired in
  check Alcotest.int "every event fired" (chains * rounds) (List.length fired);
  check Alcotest.int "all scheduled" !next_seq (List.length fired);
  check
    Alcotest.(list (pair int int))
    "(time, seq) order" (List.sort compare fired) fired;
  Gc.full_major ();
  for c = 0 to chains - 1 do
    if Weak.check buffers c then
      Alcotest.failf "chain %d's buffer is still referenced" c
  done;
  (* after the collection, so the engine was live during it *)
  check Alcotest.int "nothing pending" 0 (Engine.pending engine)

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
        Alcotest.test_case "64 chains fire in (time, seq) order" `Quick
          test_chains_fire_in_order;
      ] );
  ]
