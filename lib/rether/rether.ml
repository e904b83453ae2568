let src = Logs.Src.create "vw.rether" ~doc:"Rether token-passing protocol"

module Log = (val Logs.src_log src : Logs.LOG)

let opcode_token = 0x0001
let opcode_token_ack = 0x0010
let opcode_evict = 0x0002
let opcode_join = 0x0003

type config = {
  ring : Vw_net.Mac.t list;
  token_hold : Vw_sim.Simtime.t;
  ack_timeout : Vw_sim.Simtime.t;
  token_transmit_attempts : int;
  watchdog_timeout : Vw_sim.Simtime.t;
  gate_traffic : bool;
  max_gate_queue : int;
  cycle_budget : int;
      (* bytes a full token cycle may carry in real-time traffic; bounds
         admission control *)
  is_realtime : Vw_net.Eth.t -> bool;
      (* classifies gated egress frames into the RT or best-effort queue *)
  broken_no_eviction : bool;
}

let default_config ~ring =
  {
    ring;
    token_hold = Vw_sim.Simtime.ms 1;
    ack_timeout = Vw_sim.Simtime.ms 20;
    token_transmit_attempts = 3;
    watchdog_timeout = Vw_sim.Simtime.ms 500;
    gate_traffic = true;
    max_gate_queue = 256;
    (* 100 Mbps x a ~5 ms cycle, leaving headroom for tokens and BE data *)
    cycle_budget = 48_000;
    is_realtime = (fun _ -> false);
    broken_no_eviction = false;
  }

type stats = {
  mutable tokens_received : int;
  mutable tokens_passed : int;
  mutable token_sends : int;
  mutable token_retransmissions : int;
  mutable acks_sent : int;
  mutable duplicates_ignored : int;
  mutable evictions : int;
  mutable regenerations : int;
  mutable gated_frames : int;
  mutable gate_drops : int;
  mutable rejoins : int;
  mutable rt_frames : int; (* real-time frames released under reservation *)
  mutable rt_deferred : int; (* RT frames held for lack of reservation *)
}

type passing = {
  successor : Vw_net.Mac.t;
  token_seq : int;
  mutable attempts : int;
  mutable ack_timer : Vw_stack.Host.timer option;
}

type t = {
  host : Vw_stack.Host.t;
  config : config;
  stats : stats;
  mutable view : Vw_net.Mac.t list; (* live members in ring order *)
  mutable holding : bool;
  mutable last_token_seq : int;
  mutable passing : passing option;
  mutable hold_timer : Vw_stack.Host.timer option;
  mutable last_activity : Vw_sim.Simtime.t;
  gate : Vw_net.Eth.t Queue.t; (* best-effort egress, token-gated *)
  rt_gate : Vw_net.Eth.t Queue.t; (* real-time egress, reservation-gated *)
  mutable reservation : int; (* bytes per cycle this node may send as RT *)
  gate_priority : int;
}

let holds_token t = t.holding
let ring_view t = t.view
let stats t = t.stats

let new_stats () =
  {
    tokens_received = 0;
    tokens_passed = 0;
    token_sends = 0;
    token_retransmissions = 0;
    acks_sent = 0;
    duplicates_ignored = 0;
    evictions = 0;
    regenerations = 0;
    gated_frames = 0;
    gate_drops = 0;
    rejoins = 0;
    rt_frames = 0;
    rt_deferred = 0;
  }

let now t = Vw_sim.Engine.now (Vw_stack.Host.engine t.host)
let touch t = t.last_activity <- now t

(* payload = opcode(2) seq(4) [mac(6)] *)
let make_payload ~opcode ~seq ?mac () =
  let extra = match mac with Some _ -> 6 | None -> 0 in
  let p = Bytes.create (6 + extra) in
  Bytes.set_uint16_be p 0 (opcode land 0xffff);
  Bytes.set_int32_be p 2 (Int32.of_int seq);
  (match mac with Some m -> Vw_net.Mac.write m p ~pos:6 | None -> ());
  p

let send_control t ~dst ~opcode ~seq ?mac () =
  let frame =
    Vw_net.Eth.make ~dst ~src:(Vw_stack.Host.mac t.host)
      ~ethertype:Vw_net.Eth.ethertype_rether
      (make_payload ~opcode ~seq ?mac ())
  in
  touch t;
  Vw_stack.Host.send_frame t.host frame

let successor_of t mac =
  (* next live member after [mac] in ring order, wrapping around *)
  let rec find = function
    | [] -> None
    | [ last ] ->
        if Vw_net.Mac.equal last mac then List.nth_opt t.view 0 else None
    | m :: (next :: _ as rest) ->
        if Vw_net.Mac.equal m mac then Some next else find rest
  in
  match find t.view with
  | Some next when not (Vw_net.Mac.equal next mac) -> Some next
  | _ -> None

let canonical_insert t mac =
  (* Re-insert [mac] into the view at its position in the configured ring. *)
  if not (List.exists (Vw_net.Mac.equal mac) t.view) then
    t.view <-
      List.filter
        (fun m ->
          List.exists (Vw_net.Mac.equal m) t.view || Vw_net.Mac.equal m mac)
        t.config.ring

let remove_member t mac =
  if List.exists (Vw_net.Mac.equal mac) t.view then
    t.view <- List.filter (fun m -> not (Vw_net.Mac.equal m mac)) t.view

let release t frame =
  Vw_stack.Host.reinject t.host Vw_stack.Hook.Egress
    ~from_priority:t.gate_priority frame

(* On token arrival: first the real-time queue up to this node's
   reservation, then all pending best-effort traffic (the paper's Rether
   serves RT sessions their reserved bandwidth each cycle and gives
   leftovers to best-effort data). *)
let flush_gate t =
  let rt_left = ref t.reservation in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.rt_gate with
    | Some frame when Vw_net.Eth.size frame <= !rt_left ->
        ignore (Queue.pop t.rt_gate);
        rt_left := !rt_left - Vw_net.Eth.size frame;
        t.stats.rt_frames <- t.stats.rt_frames + 1;
        release t frame
    | Some _ | None -> continue := false
  done;
  if not (Queue.is_empty t.rt_gate) then
    t.stats.rt_deferred <- t.stats.rt_deferred + Queue.length t.rt_gate;
  while not (Queue.is_empty t.gate) do
    release t (Queue.pop t.gate)
  done

let cancel_ack_timer t =
  match t.passing with
  | Some p -> (
      match p.ack_timer with
      | Some timer ->
          Vw_stack.Host.cancel_timer t.host timer;
          p.ack_timer <- None
      | None -> ())
  | None -> ()

let rec become_holder t ~seq =
  t.holding <- true;
  t.last_token_seq <- seq;
  flush_gate t;
  (match t.hold_timer with
  | Some timer -> Vw_stack.Host.cancel_timer t.host timer
  | None -> ());
  t.hold_timer <-
    Some
      (Vw_stack.Host.set_timer t.host ~granularity:`Fine
         ~delay:t.config.token_hold (fun () ->
           t.hold_timer <- None;
           pass_token t))

and pass_token t =
  let self = Vw_stack.Host.mac t.host in
  match successor_of t self with
  | None ->
      (* Lonely ring: keep the token and look again after a hold time. *)
      become_holder t ~seq:(t.last_token_seq + 1)
  | Some successor ->
      t.holding <- false;
      let token_seq = t.last_token_seq + 1 in
      t.last_token_seq <- token_seq;
      let p = { successor; token_seq; attempts = 1; ack_timer = None } in
      t.passing <- Some p;
      t.stats.token_sends <- t.stats.token_sends + 1;
      send_control t ~dst:successor ~opcode:opcode_token ~seq:token_seq ();
      arm_ack_timer t p

and arm_ack_timer t p =
  p.ack_timer <-
    Some
      (Vw_stack.Host.set_timer t.host ~delay:t.config.ack_timeout (fun () ->
           p.ack_timer <- None;
           on_ack_timeout t p))

and on_ack_timeout t p =
  match t.passing with
  | Some current when current == p ->
      if
        p.attempts >= t.config.token_transmit_attempts
        && not t.config.broken_no_eviction
      then begin
        (* Successor presumed dead: evict it and reconstruct the ring. *)
        Log.info (fun m ->
            m "%s: evicting %s after %d token transmissions"
              (Vw_stack.Host.name t.host)
              (Vw_net.Mac.to_string p.successor)
              p.attempts);
        t.stats.evictions <- t.stats.evictions + 1;
        remove_member t p.successor;
        send_control t ~dst:Vw_net.Mac.broadcast ~opcode:opcode_evict
          ~seq:p.token_seq ~mac:p.successor ();
        t.passing <- None;
        t.holding <- true;
        pass_token t
      end
      else begin
        p.attempts <- p.attempts + 1;
        t.stats.token_sends <- t.stats.token_sends + 1;
        t.stats.token_retransmissions <- t.stats.token_retransmissions + 1;
        send_control t ~dst:p.successor ~opcode:opcode_token ~seq:p.token_seq ();
        arm_ack_timer t p
      end
  | _ -> ()

let on_token t ~from ~seq =
  t.stats.acks_sent <- t.stats.acks_sent + 1;
  send_control t ~dst:from ~opcode:opcode_token_ack ~seq ();
  if seq <= t.last_token_seq && t.stats.tokens_received > 0 then
    t.stats.duplicates_ignored <- t.stats.duplicates_ignored + 1
  else begin
    t.stats.tokens_received <- t.stats.tokens_received + 1;
    become_holder t ~seq
  end

let on_token_ack t ~from ~seq =
  match t.passing with
  | Some p
    when Vw_net.Mac.equal p.successor from && seq = p.token_seq ->
      cancel_ack_timer t;
      t.passing <- None;
      t.stats.tokens_passed <- t.stats.tokens_passed + 1
  | _ -> ()

let handle_frame t (frame : Vw_net.Eth.t) =
  touch t;
  let p = frame.payload in
  if Bytes.length p >= 6 then begin
    let opcode = Bytes.get_uint16_be p 0 in
    let seq = Int32.to_int (Bytes.get_int32_be p 2) land 0xffff_ffff in
    let self = Vw_stack.Host.mac t.host in
    if opcode = opcode_token && Vw_net.Mac.equal frame.dst self then
      on_token t ~from:frame.src ~seq
    else if opcode = opcode_token_ack && Vw_net.Mac.equal frame.dst self then
      on_token_ack t ~from:frame.src ~seq
    else if opcode = opcode_evict && Bytes.length p >= 12 then begin
      let mac = Vw_net.Mac.of_bytes p ~pos:6 in
      if not (Vw_net.Mac.equal mac self) then remove_member t mac
    end
    else if opcode = opcode_join && Bytes.length p >= 12 then begin
      let mac = Vw_net.Mac.of_bytes p ~pos:6 in
      canonical_insert t mac;
      if t.holding then t.stats.rejoins <- t.stats.rejoins + 1
    end
  end

let gate_handler t (frame : Vw_net.Eth.t) =
  if
    (not t.config.gate_traffic)
    || t.holding
    || frame.ethertype <> Vw_net.Eth.ethertype_ipv4
  then Vw_stack.Hook.Accept frame
  else begin
    let queue = if t.config.is_realtime frame then t.rt_gate else t.gate in
    if Queue.length queue >= t.config.max_gate_queue then begin
      t.stats.gate_drops <- t.stats.gate_drops + 1;
      Vw_stack.Hook.Drop
    end
    else begin
      t.stats.gated_frames <- t.stats.gated_frames + 1;
      Queue.add frame queue;
      Vw_stack.Hook.Stolen
    end
  end

let arm_watchdog t =
  let rec loop () =
    ignore
      (Vw_stack.Host.set_timer t.host ~delay:t.config.watchdog_timeout
         (fun () ->
           let idle = Vw_sim.Simtime.(now t - t.last_activity) in
           if
             idle >= t.config.watchdog_timeout
             && (not t.holding)
             && t.passing = None
           then begin
             (* The ring went silent: the lowest-MAC live member recreates
                the token. *)
             let self = Vw_stack.Host.mac t.host in
             let lowest =
               List.fold_left
                 (fun acc m ->
                   match acc with
                   | None -> Some m
                   | Some best ->
                       if Vw_net.Mac.compare m best < 0 then Some m else acc)
                 None t.view
             in
             match lowest with
             | Some low when Vw_net.Mac.equal low self ->
                 Log.info (fun m ->
                     m "%s: watchdog regenerating token"
                       (Vw_stack.Host.name t.host));
                 t.stats.regenerations <- t.stats.regenerations + 1;
                 (* The silent holder is gone; evict it so the ring view
                    converges. We cannot know who held it, so just take
                    over. *)
                 become_holder t ~seq:(t.last_token_seq + 1)
             | _ -> ()
           end;
           loop ()))
  in
  loop ()

let install ?config host =
  let config =
    match config with Some c -> c | None -> default_config ~ring:[]
  in
  if not (List.exists (Vw_net.Mac.equal (Vw_stack.Host.mac host)) config.ring)
  then invalid_arg "Rether.install: host not a ring member";
  let t =
    {
      host;
      config;
      stats = new_stats ();
      view = config.ring;
      holding = false;
      last_token_seq = -1;
      passing = None;
      hold_timer = None;
      last_activity = Vw_sim.Engine.now (Vw_stack.Host.engine host);
      gate = Queue.create ();
      rt_gate = Queue.create ();
      reservation = 0;
      gate_priority = 50;
    }
  in
  Vw_stack.Host.set_ethertype_handler host Vw_net.Eth.ethertype_rether
    (handle_frame t);
  if config.gate_traffic then
    ignore
      (Vw_stack.Host.add_hook host Vw_stack.Hook.Egress
         ~priority:t.gate_priority ~name:"rether-gate" (gate_handler t));
  arm_watchdog t;
  t

let start t = become_holder t ~seq:0

(* Admission control is local: a production Rether arbitrates reservations
   over the ring; for the behaviours exercised here (RT traffic surviving a
   best-effort hog; over-subscription rejected) per-node admission against
   the cycle budget is the same decision procedure. *)
let reserve t ~bytes_per_cycle =
  if bytes_per_cycle < 0 then invalid_arg "Rether.reserve: negative";
  if t.reservation + bytes_per_cycle > t.config.cycle_budget then false
  else begin
    t.reservation <- t.reservation + bytes_per_cycle;
    true
  end

let release_reservation t = t.reservation <- 0
let reservation t = t.reservation

let rejoin t =
  canonical_insert t (Vw_stack.Host.mac t.host);
  send_control t ~dst:Vw_net.Mac.broadcast ~opcode:opcode_join
    ~seq:(t.last_token_seq + 1)
    ~mac:(Vw_stack.Host.mac t.host) ()
