type frame = { eth : Vw_net.Eth.t; mutable attempts : int }

type endpoint = {
  bus : t;
  index : int;
  mutable rx : Vw_net.Eth.t -> unit;
  queue : frame Queue.t;
  mutable engaged : bool;
      (* true while this endpoint is transmitting, deferring, or backing off:
         prevents re-entrant attempts on the queue head *)
}

and t = {
  engine : Vw_sim.Engine.t;
  config : Link.config;
  stats : Media_stats.t;
  prng : Vw_util.Prng.t;
  mutable endpoints : endpoint array;
  (* channel state: at most one live transmission *)
  mutable busy_until : Vw_sim.Simtime.t;
  mutable tx_start : Vw_sim.Simtime.t;
  mutable tx_owner : int;
}

let backoff_slot = 51_200 (* ns; the classic Ethernet slot time *)
let interframe_gap = 960 (* ns; 96 bit times at 100 Mbps *)
let max_attempts = 16

let create engine config ~n =
  let t =
    {
      engine;
      config;
      stats = Media_stats.create ();
      prng = Vw_sim.Engine.prng engine;
      endpoints = [||];
      busy_until = Vw_sim.Simtime.zero;
      tx_start = Vw_sim.Simtime.zero;
      tx_owner = -1;
    }
  in
  let mk i =
    { bus = t; index = i; rx = ignore; queue = Queue.create (); engaged = false }
  in
  t.endpoints <- Array.init n mk;
  t

let endpoint t i = t.endpoints.(i)
let stats t = t.stats
let set_receive ep fn = ep.rx <- fn
let queue_length ep = Queue.length ep.queue

let finish_frame ep =
  ignore (Queue.pop ep.queue);
  ep.engaged <- false

(* Post-transmission / post-deferral contention delay: the interframe gap
   plus a small randomization. Giving the just-finished transmitter the same
   wait as deferring stations is what keeps one busy sender from starving
   everyone else — real Ethernet gets this fairness from the IFG too. *)
let contention_delay t =
  interframe_gap + Vw_util.Prng.int t.prng 4_000

let rec attempt ep =
  let t = ep.bus in
  match Queue.peek_opt ep.queue with
  | None -> ep.engaged <- false
  | Some frame ->
      ep.engaged <- true;
      let now = Vw_sim.Engine.now t.engine in
      if now < t.busy_until && t.tx_owner <> ep.index then
        if Vw_sim.Simtime.(now >= t.tx_start + t.config.propagation) then begin
          (* Carrier sensed: defer to the end of the ongoing transmission
             plus the interframe gap and a small randomization (sub-slot)
             that keeps two deferring stations from colliding forever. *)
          let wake = Vw_sim.Simtime.(t.busy_until + contention_delay t) in
          Vw_sim.Engine.schedule_at t.engine ~time:wake (fun () -> attempt ep)
        end
        else collide t ep frame
      else start_transmission ep frame

and collide t ep frame =
  (* The in-flight transmission has not propagated to [ep] yet: both frames
     die and both senders back off. The owner's frame is still the head of
     its queue (a frame leaves it only on completion or give-up); backing
     it off is what aborts its pending completion. *)
  let owner = t.endpoints.(t.tx_owner) in
  t.busy_until <- Vw_sim.Engine.now t.engine (* channel frees immediately *);
  t.tx_owner <- -1;
  back_off owner (Queue.peek owner.queue);
  back_off ep frame

and back_off ep frame =
  let t = ep.bus in
  frame.attempts <- frame.attempts + 1;
  if frame.attempts >= max_attempts then begin
    t.stats.dropped_collision <- t.stats.dropped_collision + 1;
    finish_frame ep;
    attempt ep
  end
  else begin
    let k = min frame.attempts 10 in
    let slots = Vw_util.Prng.int t.prng (1 lsl k) in
    let delay = Vw_sim.Simtime.ns ((slots * backoff_slot) + 1) in
    Vw_sim.Engine.schedule_after t.engine ~delay (fun () -> attempt ep)
  end

and start_transmission ep frame =
  let t = ep.bus in
  let now = Vw_sim.Engine.now t.engine in
  let duration = Link.tx_time t.config (Vw_net.Eth.size frame.eth) in
  t.tx_start <- now;
  t.busy_until <- Vw_sim.Simtime.(now + duration);
  t.tx_owner <- ep.index;
  (* A collision backs [frame] off, which bumps [attempts]: the completion
     then finds a different count and does nothing. Any earlier completion
     still queued for this instant is not aborted — its frame did finish on
     the wire. *)
  let attempts = frame.attempts in
  Vw_sim.Engine.schedule_at t.engine ~time:t.busy_until (fun () ->
      if frame.attempts = attempts then begin
        (* release the channel only if it was not legitimately re-acquired
           at the instant this transmission ended *)
        if t.tx_owner = ep.index then t.tx_owner <- -1;
        finish_frame ep;
        deliver t ep frame.eth;
        if not (Queue.is_empty ep.queue) then begin
          ep.engaged <- true;
          Vw_sim.Engine.schedule_after t.engine ~delay:(contention_delay t)
            (fun () -> attempt ep)
        end
      end)

and deliver t sender eth =
  let arrival =
    Vw_sim.Simtime.(Vw_sim.Engine.now t.engine + t.config.propagation)
  in
  Array.iter
    (fun dst ->
      if
        dst.index <> sender.index
        && not (Link.lost t.config t.prng t.stats)
      then begin
        t.stats.delivered <- t.stats.delivered + 1;
        Vw_sim.Engine.schedule_at t.engine ~time:arrival (fun () -> dst.rx eth)
      end)
    t.endpoints

let send ep eth =
  let t = ep.bus in
  t.stats.sent <- t.stats.sent + 1;
  if Queue.length ep.queue >= t.config.max_queue then
    t.stats.dropped_queue <- t.stats.dropped_queue + 1
  else begin
    Queue.add { eth; attempts = 0 } ep.queue;
    if not ep.engaged then attempt ep
  end
