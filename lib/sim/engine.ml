type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Simtime.t;
  root_prng : Vw_util.Prng.t;
  mutable stop_requested : bool;
}

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ~dummy:ignore ();
    clock = Simtime.zero;
    root_prng = Vw_util.Prng.create ~seed;
    stop_requested = false;
  }

let now t = t.clock
let prng t = Vw_util.Prng.split t.root_prng

let schedule_at t ~time fn =
  let time = if time < t.clock then t.clock else time in
  Event_queue.push t.queue ~time fn

let schedule_after t ~delay fn =
  let delay = if delay < 0 then 0 else delay in
  schedule_at t ~time:Simtime.(t.clock + delay) fn

(* Runs the earliest event; the queue must not be empty. *)
let fire t =
  let time = Event_queue.top_time t.queue in
  let fn = Event_queue.take t.queue in
  if time > t.clock then t.clock <- time;
  fn ()

let step t =
  if Event_queue.length t.queue = 0 then false
  else begin
    fire t;
    true
  end

let run ?until t =
  t.stop_requested <- false;
  let limit = match until with Some u -> u | None -> max_int in
  while
    (not t.stop_requested)
    && Event_queue.length t.queue > 0
    && Event_queue.top_time t.queue <= limit
  do
    fire t
  done;
  (* a run that ran out of events before [until] still reaches it *)
  match until with
  | Some u when (not t.stop_requested) && u > t.clock -> t.clock <- u
  | _ -> ()

let pending t = Event_queue.length t.queue
let stop t = t.stop_requested <- true
let stop_requested t = t.stop_requested
