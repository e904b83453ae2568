type config = {
  bandwidth_bps : float;
  propagation : Vw_sim.Simtime.t;
  loss_rate : float;
  max_queue : int;
}

let default_config =
  {
    bandwidth_bps = 100e6;
    propagation = Vw_sim.Simtime.us 5;
    loss_rate = 0.0;
    max_queue = 64;
  }

let tx_time config len =
  Vw_sim.Simtime.ns
    (int_of_float ((float_of_int (len * 8) /. config.bandwidth_bps *. 1e9) +. 0.5))

let lost config prng (stats : Media_stats.t) =
  let lost = Vw_util.Prng.bool prng config.loss_rate in
  if lost then stats.dropped_loss <- stats.dropped_loss + 1;
  lost

(* One direction: a FIFO of frames serialized back to back. *)
type direction = {
  queue : Vw_net.Eth.t Queue.t;
  mutable busy : bool;
  mutable rx : Vw_net.Eth.t -> unit; (* receiver at the far end *)
}

type t = {
  engine : Vw_sim.Engine.t;
  config : config;
  dirs : direction array; (* index = sending endpoint *)
  stats : Media_stats.t;
  prng : Vw_util.Prng.t;
}

type endpoint = { link : t; index : int }

let create engine config =
  {
    engine;
    config;
    dirs =
      Array.init 2 (fun _ ->
          { queue = Queue.create (); busy = false; rx = ignore });
    stats = Media_stats.create ();
    prng = Vw_sim.Engine.prng engine;
  }

let endpoint_a t = { link = t; index = 0 }
let endpoint_b t = { link = t; index = 1 }
let stats t = t.stats

let rec pump_direction t dir =
  match Queue.peek_opt dir.queue with
  | None -> dir.busy <- false
  | Some frame ->
      dir.busy <- true;
      let duration = tx_time t.config (Vw_net.Eth.size frame) in
      Vw_sim.Engine.schedule_after t.engine ~delay:duration (fun () ->
          ignore (Queue.pop dir.queue);
          transmit_done t dir frame;
          pump_direction t dir)

(* A lossless link draws nothing: its stream feeds only this draw, so
   skipping it moves no other outcome. [Bus] cannot skip, as its stream
   also times contention and backoff. *)
and transmit_done t dir frame =
  if t.config.loss_rate = 0. || not (lost t.config t.prng t.stats) then begin
    t.stats.delivered <- t.stats.delivered + 1;
    Vw_sim.Engine.schedule_after t.engine ~delay:t.config.propagation
      (fun () -> dir.rx frame)
  end

let send ep frame =
  let t = ep.link in
  t.stats.sent <- t.stats.sent + 1;
  let dir = t.dirs.(ep.index) in
  if Queue.length dir.queue >= t.config.max_queue then
    t.stats.dropped_queue <- t.stats.dropped_queue + 1
  else begin
    Queue.add frame dir.queue;
    if not dir.busy then pump_direction t dir
  end

(* Frames sent by the peer arrive here: install on the peer's sending
   direction. *)
let set_receive ep fn = ep.link.dirs.(1 - ep.index).rx <- fn
