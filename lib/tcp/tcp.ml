let src = Logs.Src.create "vw.tcp" ~doc:"VirtualWire TCP implementation"

module Log = (val Logs.src_log src : Logs.LOG)
module Seg = Vw_net.Tcp_segment

type config = {
  mss : int;
  initial_cwnd : int;
  initial_ssthresh : int;
  max_cwnd : int;
  rto_initial : Vw_sim.Simtime.t;
  rto_min : Vw_sim.Simtime.t;
  rto_max : Vw_sim.Simtime.t;
  max_retries : int;
  window : int;
  broken_no_congestion_avoidance : bool;
  broken_ignore_cwnd : bool;
}

let default_config =
  {
    mss = 1000;
    initial_cwnd = 1;
    initial_ssthresh = 64;
    max_cwnd = 128;
    rto_initial = Vw_sim.Simtime.sec 1.0;
    rto_min = Vw_sim.Simtime.ms 200;
    rto_max = Vw_sim.Simtime.sec 60.0;
    max_retries = 12;
    window = 65535;
    broken_no_congestion_avoidance = false;
    broken_ignore_cwnd = false;
  }

type stats = {
  mutable segments_sent : int;
  mutable segments_received : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  mutable bytes_acked : int;
  mutable dup_acks_seen : int;
}

type state =
  | Closed
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Closing -> "CLOSING"
  | Time_wait -> "TIME_WAIT"

type key = int * Vw_net.Ip_addr.t * int (* local port, remote ip, remote port *)

type t = {
  stack : stack;
  conn_config : config;
  key : key;
  local_port : int;
  remote_ip : Vw_net.Ip_addr.t;
  remote_port : int;
  mutable conn_state : state;
  (* send side *)
  iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable rwnd : int; (* peer's advertised window *)
  out_buf : Buffer.t;
  mutable out_off : int; (* bytes of out_buf already segmentized *)
  mutable rtx_queue : (int * bytes) list; (* (seq, payload), ascending *)
  mutable fin_pending : bool;
  mutable fin_seq : int option; (* seq consumed by our FIN once sent *)
  (* receive side *)
  mutable rcv_nxt : int;
  recv_ooo : (int, bytes) Hashtbl.t;
  mutable fin_rcvd : bool;
  mutable delivered : int;
  (* congestion control, counted in segments like the paper's script *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable ca_acks : int; (* the script's CCNT *)
  mutable dupacks : int;
  mutable cwnd_history : (Vw_sim.Simtime.t * int) list; (* newest first *)
  (* RTO state *)
  mutable srtt : float option; (* seconds *)
  mutable rttvar : float;
  mutable rto : Vw_sim.Simtime.t;
  mutable rto_timer : Vw_stack.Host.timer option;
  mutable retries : int;
  mutable timing : (int * Vw_sim.Simtime.t) option; (* (seq end, sent at) *)
  (* callbacks *)
  mutable established_cb : unit -> unit;
  mutable data_cb : bytes -> unit;
  mutable closed_cb : unit -> unit;
  stats : stats;
}

and listener = {
  l_stack : stack;
  l_port : int;
  l_config : config;
  l_on_accept : t -> unit;
}

and stack = {
  host : Vw_stack.Host.t;
  conns : (key, t) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t;
  mutable next_iss : int;
}

let host stack = stack.host
let state t = t.conn_state
let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let flight_size t = t.snd_nxt - t.snd_una
let stats t = t.stats
let cwnd_history t = List.rev t.cwnd_history
let bytes_delivered t = t.delivered

let new_stats () =
  {
    segments_sent = 0;
    segments_received = 0;
    retransmits = 0;
    timeouts = 0;
    fast_retransmits = 0;
    bytes_acked = 0;
    dup_acks_seen = 0;
  }

let engine t = Vw_stack.Host.engine t.stack.host
let now t = Vw_sim.Engine.now (engine t)

let set_cwnd t v =
  let v = max 1 (min v t.conn_config.max_cwnd) in
  if v <> t.cwnd then begin
    t.cwnd <- v;
    t.cwnd_history <- (now t, v) :: t.cwnd_history
  end

let flight_segments t =
  let mss = t.conn_config.mss in
  (flight_size t + mss - 1) / mss

(* --- segment emission --- *)

let emit t ?(payload = Bytes.create 0) ~seq ~flags () =
  let seg =
    Seg.make ~seq ~ack_seq:(if flags.Seg.ack then t.rcv_nxt else 0) ~flags
      ~window:t.conn_config.window ~src_port:t.local_port
      ~dst_port:t.remote_port payload
  in
  let data =
    Seg.to_bytes ~src:(Vw_stack.Host.ip t.stack.host) ~dst:t.remote_ip seg
  in
  Vw_stack.Host.send_ip t.stack.host ~protocol:Vw_net.Ipv4.protocol_tcp
    ~dst:t.remote_ip data

let ack_flags = { Seg.no_flags with ack = true }
let syn_flags = { Seg.no_flags with syn = true }
let synack_flags = { Seg.no_flags with syn = true; ack = true }
let fin_flags = { Seg.no_flags with fin = true; ack = true }
let rst_flags = { Seg.no_flags with rst = true }

let send_pure_ack t = emit t ~seq:t.snd_nxt ~flags:ack_flags ()

(* --- RTO management --- *)

let stop_rto t =
  match t.rto_timer with
  | Some timer ->
      Vw_stack.Host.cancel_timer t.stack.host timer;
      t.rto_timer <- None
  | None -> ()

let clamp_rto t v =
  let v = max t.conn_config.rto_min v in
  min t.conn_config.rto_max v

let compute_rto t =
  match t.srtt with
  | None -> t.conn_config.rto_initial
  | Some srtt -> clamp_rto t (Vw_sim.Simtime.sec (srtt +. (4.0 *. t.rttvar)))

let rec restart_rto t =
  stop_rto t;
  t.rto_timer <-
    Some
      (Vw_stack.Host.set_timer t.stack.host ~delay:t.rto
         (fun () -> on_rto t))

and on_rto t =
  t.rto_timer <- None;
  if t.conn_state <> Closed && t.conn_state <> Time_wait then begin
    t.stats.timeouts <- t.stats.timeouts + 1;
    t.retries <- t.retries + 1;
    t.timing <- None (* Karn: never time a retransmitted segment *);
    if t.retries > t.conn_config.max_retries then begin
      Log.info (fun m ->
          m "%s: tcp %d->%d gave up after %d retries"
            (Vw_stack.Host.name t.stack.host)
            t.local_port t.remote_port t.conn_config.max_retries);
      drop_connection t
    end
    else begin
      (* Loss response: ssthresh halves the flight (floor 2 segments),
         cwnd collapses to 1 — the Linux 2.4 behaviour the paper's
         Section 6.1 script depends on (a SYN timeout yields ssthresh=2,
         cwnd=1). *)
      t.ssthresh <- max (flight_segments t / 2) 2;
      set_cwnd t 1;
      t.ca_acks <- 0;
      t.dupacks <- 0;
      t.rto <- clamp_rto t Vw_sim.Simtime.(t.rto + t.rto) (* back off 2x *);
      retransmit_base t;
      restart_rto t
    end
  end

and retransmit_base t =
  match t.conn_state with
  | Syn_sent ->
      t.stats.retransmits <- t.stats.retransmits + 1;
      emit t ~seq:t.iss ~flags:syn_flags ()
  | Syn_rcvd ->
      t.stats.retransmits <- t.stats.retransmits + 1;
      emit t ~seq:t.iss ~flags:synack_flags ()
  | _ -> (
      match t.rtx_queue with
      | (seq, payload) :: _ ->
          t.stats.retransmits <- t.stats.retransmits + 1;
          emit t ~payload ~seq
            ~flags:{ ack_flags with psh = Bytes.length payload > 0 }
            ()
      | [] -> (
          (* Only the FIN can be outstanding. *)
          match t.fin_seq with
          | Some seq when t.snd_una <= seq ->
              t.stats.retransmits <- t.stats.retransmits + 1;
              emit t ~seq ~flags:fin_flags ()
          | _ -> ()))

and drop_connection t =
  stop_rto t;
  t.conn_state <- Closed;
  Hashtbl.remove t.stack.conns t.key;
  t.closed_cb ()

(* --- sending --- *)

let available_data t = Buffer.length t.out_buf - t.out_off

let effective_window t =
  if t.conn_config.broken_ignore_cwnd then t.rwnd
  else min (t.cwnd * t.conn_config.mss) t.rwnd

let rec try_send t =
  match t.conn_state with
  | Established | Close_wait ->
      let progress = ref true in
      while !progress do
        progress := false;
        let wnd = effective_window t in
        let room = wnd - flight_size t in
        let avail = available_data t in
        if avail > 0 && room > 0 then begin
          let len = min t.conn_config.mss (min avail room) in
          let payload = Bytes.create len in
          Buffer.blit t.out_buf t.out_off payload 0 len;
          t.out_off <- t.out_off + len;
          (* the segment owns a copy of its bytes in [rtx_queue], so the
             segmentized prefix is dead: drop it once it is half the
             buffer *)
          if 2 * t.out_off >= Buffer.length t.out_buf then begin
            let rest = Buffer.sub t.out_buf t.out_off (available_data t) in
            Buffer.reset t.out_buf;
            Buffer.add_string t.out_buf rest;
            t.out_off <- 0
          end;
          let seq = t.snd_nxt in
          t.snd_nxt <- t.snd_nxt + len;
          t.rtx_queue <- t.rtx_queue @ [ (seq, payload) ];
          t.stats.segments_sent <- t.stats.segments_sent + 1;
          if t.timing = None then t.timing <- Some (seq + len, now t);
          emit t ~payload ~seq ~flags:{ ack_flags with psh = true } ();
          if t.rto_timer = None then restart_rto t;
          progress := true
        end
      done;
      if t.fin_pending && available_data t = 0 && t.fin_seq = None then begin
        let seq = t.snd_nxt in
        t.fin_seq <- Some seq;
        t.snd_nxt <- t.snd_nxt + 1;
        t.conn_state <-
          (match t.conn_state with
          | Close_wait -> Last_ack
          | _ -> Fin_wait_1);
        emit t ~seq ~flags:fin_flags ();
        if t.rto_timer = None then restart_rto t
      end
  | _ -> ()

and send t data =
  Buffer.add_bytes t.out_buf data;
  try_send t

(* --- receiving --- *)

let rtt_sample t sample_s =
  (match t.srtt with
  | None ->
      t.srtt <- Some sample_s;
      t.rttvar <- sample_s /. 2.0
  | Some srtt ->
      let alpha = 0.125 and beta = 0.25 in
      t.rttvar <-
        ((1.0 -. beta) *. t.rttvar) +. (beta *. Float.abs (srtt -. sample_s));
      t.srtt <- Some (((1.0 -. alpha) *. srtt) +. (alpha *. sample_s)));
  t.rto <- compute_rto t

let congestion_on_new_ack t =
  if t.conn_config.broken_no_congestion_avoidance || t.cwnd <= t.ssthresh then
    (* slow start: one segment per new ack *)
    set_cwnd t (t.cwnd + 1)
  else begin
    (* congestion avoidance: one segment per window of acks *)
    t.ca_acks <- t.ca_acks + 1;
    if t.ca_acks > t.cwnd then begin
      t.ca_acks <- 0;
      set_cwnd t (t.cwnd + 1)
    end
  end

let fin_acked t ack =
  match t.fin_seq with Some seq -> ack >= seq + 1 | None -> false

let enter_time_wait t =
  stop_rto t;
  t.conn_state <- Time_wait;
  ignore
    (Vw_stack.Host.set_timer t.stack.host
       ~delay:(Vw_sim.Simtime.sec 1.0)
       (fun () -> if t.conn_state = Time_wait then drop_connection t))

let process_new_ack t ack =
  let acked = ack - t.snd_una in
  t.snd_una <- ack;
  t.stats.bytes_acked <- t.stats.bytes_acked + acked;
  t.dupacks <- 0;
  t.retries <- 0;
  t.rtx_queue <-
    List.filter (fun (seq, payload) -> seq + Bytes.length payload > ack)
      t.rtx_queue;
  (match t.timing with
  | Some (seq_end, sent_at) when ack >= seq_end ->
      rtt_sample t (Vw_sim.Simtime.to_sec Vw_sim.Simtime.(now t - sent_at));
      t.timing <- None
  | _ -> ());
  congestion_on_new_ack t;
  if t.snd_una = t.snd_nxt then stop_rto t else restart_rto t

let fast_retransmit t =
  t.stats.fast_retransmits <- t.stats.fast_retransmits + 1;
  t.ssthresh <- max (flight_segments t / 2) 2;
  set_cwnd t t.ssthresh;
  t.ca_acks <- 0;
  t.timing <- None;
  (match t.rtx_queue with
  | (seq, payload) :: _ ->
      t.stats.retransmits <- t.stats.retransmits + 1;
      emit t ~payload ~seq ~flags:{ ack_flags with psh = true } ()
  | [] -> ());
  restart_rto t

let rec deliver_in_order t =
  match Hashtbl.find_opt t.recv_ooo t.rcv_nxt with
  | Some payload ->
      Hashtbl.remove t.recv_ooo t.rcv_nxt;
      t.rcv_nxt <- t.rcv_nxt + Bytes.length payload;
      t.delivered <- t.delivered + Bytes.length payload;
      t.data_cb payload;
      deliver_in_order t
  | None -> ()

let handle_payload t (seg : Seg.t) =
  let len = Bytes.length seg.payload in
  if len > 0 then begin
    if seg.seq = t.rcv_nxt then begin
      t.rcv_nxt <- t.rcv_nxt + len;
      t.delivered <- t.delivered + len;
      t.data_cb seg.payload;
      deliver_in_order t
    end
    else if seg.seq > t.rcv_nxt && Hashtbl.length t.recv_ooo < 4096 then
      Hashtbl.replace t.recv_ooo seg.seq seg.payload;
    true (* an ack is owed *)
  end
  else false

let handle_fin t (seg : Seg.t) =
  (* Process FIN only once its sequence position is reached. *)
  seg.flags.fin && seg.seq + Bytes.length seg.payload = t.rcv_nxt && not t.fin_rcvd

let conn_receive t (seg : Seg.t) =
  t.stats.segments_received <- t.stats.segments_received + 1;
  if seg.flags.rst then begin
    if t.conn_state <> Closed then begin
      Log.debug (fun m ->
          m "%s: connection reset by peer" (Vw_stack.Host.name t.stack.host));
      drop_connection t
    end
  end
  else begin
    t.rwnd <- seg.window;
    match t.conn_state with
    | Closed -> ()
    | Syn_sent ->
        if seg.flags.syn && seg.flags.ack && seg.ack_seq = t.iss + 1 then begin
          t.snd_una <- t.iss + 1;
          t.rcv_nxt <- seg.seq + 1;
          t.conn_state <- Established;
          t.retries <- 0;
          stop_rto t;
          send_pure_ack t;
          t.established_cb ();
          try_send t
        end
    | Syn_rcvd ->
        if seg.flags.syn && not seg.flags.ack then
          (* Duplicate SYN: our SYNACK was lost; resend it. *)
          emit t ~seq:t.iss ~flags:synack_flags ()
        else if seg.flags.ack && seg.ack_seq = t.iss + 1 then begin
          t.snd_una <- t.iss + 1;
          t.conn_state <- Established;
          t.retries <- 0;
          stop_rto t;
          t.established_cb ();
          (* The handshake ACK may carry data. *)
          let owed = handle_payload t seg in
          if owed then send_pure_ack t;
          try_send t
        end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack | Closing
      ->
        (* ACK processing *)
        (if seg.flags.ack then
           if seg.ack_seq > t.snd_una && seg.ack_seq <= t.snd_nxt then
             process_new_ack t seg.ack_seq
           else if
             seg.ack_seq = t.snd_una
             && t.snd_nxt > t.snd_una
             && Bytes.length seg.payload = 0
             && not seg.flags.fin
           then begin
             t.dupacks <- t.dupacks + 1;
             t.stats.dup_acks_seen <- t.stats.dup_acks_seen + 1;
             if t.dupacks = 3 then fast_retransmit t
           end);
        (* state transitions driven by ack of our FIN *)
        (match t.conn_state with
        | Fin_wait_1 when fin_acked t t.snd_una -> t.conn_state <- Fin_wait_2
        | Closing when fin_acked t t.snd_una -> enter_time_wait t
        | Last_ack when fin_acked t t.snd_una -> drop_connection t
        | _ -> ());
        (* payload *)
        let owed = handle_payload t seg in
        (* FIN processing *)
        let fin_now = handle_fin t seg in
        if fin_now then begin
          t.fin_rcvd <- true;
          t.rcv_nxt <- t.rcv_nxt + 1;
          (match t.conn_state with
          | Established -> t.conn_state <- Close_wait
          | Fin_wait_1 -> t.conn_state <- Closing
          | Fin_wait_2 -> enter_time_wait t
          | Close_wait | Last_ack | Closing | Time_wait | Closed | Syn_sent
          | Syn_rcvd ->
              ());
          send_pure_ack t
        end
        else if owed || (Bytes.length seg.payload > 0 && seg.seq < t.rcv_nxt)
        then send_pure_ack t;
        try_send t
    | Time_wait ->
        (* Re-ack anything (e.g. a retransmitted FIN). *)
        if seg.flags.fin then send_pure_ack t
  end

(* --- stack --- *)

let rec attach h =
  let stack =
    { host = h; conns = Hashtbl.create 16; listeners = Hashtbl.create 4;
      next_iss = 10_000 }
  in
  Vw_stack.Host.set_ip_protocol_handler h Vw_net.Ipv4.protocol_tcp
    (fun (packet : Vw_net.Ipv4.t) ->
      match Seg.of_bytes ~src:packet.src ~dst:packet.dst packet.payload with
      | Error e ->
          Log.debug (fun m -> m "%s: dropped segment: %s" (Vw_stack.Host.name h) e)
      | Ok seg -> stack_receive stack packet seg);
  stack

and fresh_iss stack =
  let iss = stack.next_iss in
  stack.next_iss <- stack.next_iss + 64_000;
  iss

and make_conn stack conn_config ~local_port ~remote_ip ~remote_port ~conn_state
    ~iss ~rcv_nxt =
  let t =
    {
      stack;
      conn_config;
      key = (local_port, remote_ip, remote_port);
      local_port;
      remote_ip;
      remote_port;
      conn_state;
      iss;
      snd_una = iss;
      snd_nxt = iss + 1;
      rwnd = 65535;
      out_buf = Buffer.create 4096;
      out_off = 0;
      rtx_queue = [];
      fin_pending = false;
      fin_seq = None;
      rcv_nxt;
      recv_ooo = Hashtbl.create 16;
      fin_rcvd = false;
      delivered = 0;
      cwnd = conn_config.initial_cwnd;
      ssthresh = conn_config.initial_ssthresh;
      ca_acks = 0;
      dupacks = 0;
      cwnd_history = [];
      srtt = None;
      rttvar = 0.0;
      rto = conn_config.rto_initial;
      rto_timer = None;
      retries = 0;
      timing = None;
      established_cb = (fun () -> ());
      data_cb = (fun _ -> ());
      closed_cb = (fun () -> ());
      stats = new_stats ();
    }
  in
  t.cwnd_history <- [ (Vw_sim.Engine.now (Vw_stack.Host.engine stack.host),
                       t.cwnd) ];
  Hashtbl.replace stack.conns t.key t;
  t

and stack_receive stack (packet : Vw_net.Ipv4.t) (seg : Seg.t) =
  let key = (seg.dst_port, packet.src, seg.src_port) in
  match Hashtbl.find_opt stack.conns key with
  | Some conn -> conn_receive conn seg
  | None -> (
      match Hashtbl.find_opt stack.listeners seg.dst_port with
      | Some listener when seg.flags.syn && not seg.flags.ack ->
          let conn =
            make_conn stack listener.l_config ~local_port:seg.dst_port
              ~remote_ip:packet.src ~remote_port:seg.src_port
              ~conn_state:Syn_rcvd ~iss:(fresh_iss stack)
              ~rcv_nxt:(seg.seq + 1)
          in
          conn.rwnd <- seg.window;
          listener.l_on_accept conn;
          emit conn ~seq:conn.iss ~flags:synack_flags ();
          restart_rto conn
      | _ ->
          (* No home for this segment: RST, unless it is itself a RST. *)
          if not seg.flags.rst then begin
            let rst =
              Seg.make ~seq:seg.ack_seq ~ack_seq:0 ~flags:rst_flags
                ~window:0 ~src_port:seg.dst_port ~dst_port:seg.src_port
                (Bytes.create 0)
            in
            Vw_stack.Host.send_ip stack.host
              ~protocol:Vw_net.Ipv4.protocol_tcp ~dst:packet.src
              (Seg.to_bytes ~src:packet.dst ~dst:packet.src rst)
          end)

let listen ?(config = default_config) stack ~port ~on_accept =
  if Hashtbl.mem stack.listeners port then
    invalid_arg (Printf.sprintf "Tcp.listen: port %d already listening" port);
  let listener =
    { l_stack = stack; l_port = port; l_config = config; l_on_accept = on_accept }
  in
  Hashtbl.replace stack.listeners port listener;
  listener

let connect ?(config = default_config) stack ~src_port ~dst ~dst_port =
  let t =
    make_conn stack config ~local_port:src_port ~remote_ip:dst
      ~remote_port:dst_port ~conn_state:Syn_sent ~iss:(fresh_iss stack)
      ~rcv_nxt:0
  in
  emit t ~seq:t.iss ~flags:syn_flags ();
  restart_rto t;
  t

let close t =
  match t.conn_state with
  | Established | Close_wait ->
      t.fin_pending <- true;
      try_send t
  | Syn_sent | Syn_rcvd -> drop_connection t
  | _ -> ()

let abort t =
  if t.conn_state <> Closed then begin
    emit t ~seq:t.snd_nxt ~flags:rst_flags ();
    drop_connection t
  end

let on_established t cb = t.established_cb <- cb
let on_data t cb = t.data_cb <- cb
let on_closed t cb = t.closed_cb <- cb
