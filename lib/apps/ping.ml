module Host = Vw_stack.Host
module Icmp = Vw_net.Icmp

type stats = {
  transmitted : int;
  received : int;
  unreachable : int;
  rtts : Vw_util.Stats.t;
}

let loss_pct s =
  if s.transmitted = 0 then 0.0
  else
    float_of_int (s.transmitted - s.received)
    /. float_of_int s.transmitted *. 100.0

(* Process-global on purpose (an ICMP id only has to be unique among
   concurrent pings), but an Atomic so parallel campaign workers cannot
   tear it. Jobs that need bit-reproducible ICMP ids should not run
   concurrent Ping sessions across domains. *)
let next_id = Atomic.make 0

let run ?(count = 5) ?(interval = Vw_sim.Simtime.ms 10) ?(payload_size = 56)
    ?(timeout = Vw_sim.Simtime.sec 1.0) host ~dst k =
  let id = (Atomic.fetch_and_add next_id 1 + 1) land 0xffff in
  let engine = Host.engine host in
  let sent_at = Hashtbl.create 16 in
  let transmitted = ref 0 in
  let received = ref 0 in
  let unreachable = ref 0 in
  let rtts = Vw_util.Stats.create () in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Host.set_icmp_observer host None;
      k
        {
          transmitted = !transmitted;
          received = !received;
          unreachable = !unreachable;
          rtts;
        }
    end
  in
  Host.set_icmp_observer host
    (Some
       (fun _packet message ->
         match message with
         | Icmp.Echo_reply { id = rid; seq; _ } when rid = id -> (
             match Hashtbl.find_opt sent_at seq with
             | Some t0 ->
                 Hashtbl.remove sent_at seq;
                 incr received;
                 Vw_util.Stats.add rtts
                   (Vw_sim.Simtime.to_sec
                      Vw_sim.Simtime.(Vw_sim.Engine.now engine - t0));
                 if !received + !unreachable = count then finish ()
             | None -> ())
         | Icmp.Dest_unreachable _ ->
             incr unreachable;
             if !received + !unreachable = count then finish ()
         | Icmp.Echo_reply _ | Icmp.Echo_request _ -> ()));
  for seq = 1 to count do
    Vw_sim.Engine.schedule_after engine
      ~delay:((seq - 1) * interval)
      (fun () ->
        if not !finished then begin
          incr transmitted;
          Hashtbl.replace sent_at seq (Vw_sim.Engine.now engine);
          Host.send_icmp host ~dst
            (Icmp.Echo_request
               { id; seq; payload = Bytes.make payload_size '\000' })
        end)
  done;
  Vw_sim.Engine.schedule_after engine
    ~delay:Vw_sim.Simtime.(((count - 1) * interval) + timeout)
    finish
