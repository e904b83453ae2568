type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Simtime.t;
  root_prng : Vw_util.Prng.t;
  mutable stop_requested : bool;
}

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    clock = Simtime.zero;
    root_prng = Vw_util.Prng.create ~seed;
    stop_requested = false;
  }

let now t = t.clock
let prng t = Vw_util.Prng.split t.root_prng

let schedule_at t ~time fn =
  let time = max time t.clock in
  Event_queue.push t.queue ~time fn

let schedule_after t ~delay fn =
  let delay = max 0 delay in
  schedule_at t ~time:Simtime.(t.clock + delay) fn

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, fn) ->
      t.clock <- max t.clock time;
      fn ();
      true

let run ?until t =
  t.stop_requested <- false;
  let rec loop () =
    if not t.stop_requested then
      match (Event_queue.peek_time t.queue, until) with
      | None, Some u -> t.clock <- max t.clock u
      | None, None -> ()
      | Some time, Some u when time > u -> t.clock <- max t.clock u
      | Some _, _ ->
          ignore (step t);
          loop ()
  in
  loop ()

let pending t = Event_queue.length t.queue
let stop t = t.stop_requested <- true
let stop_requested t = t.stop_requested
