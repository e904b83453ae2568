let src = Logs.Src.create "vw.rll" ~doc:"Reliable Link Layer"

module Log = (val Logs.src_log src : Logs.LOG)
module Int_tbl = Vw_util.Int_tbl

type config = {
  window : int;
  retransmit_timeout : Vw_sim.Simtime.t;
  max_retries : int;
  go_back_n : bool;
}

let default_config =
  {
    window = 8;
    retransmit_timeout = Vw_sim.Simtime.ms 20;
    max_retries = 10;
    go_back_n = false;
  }

type stats = {
  mutable data_sent : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable delivered : int;
  mutable duplicates : int;
  mutable abandoned : int;
}

(* Wire format of the RLL payload:
   byte 0        kind: 0 = data, 1 = ack
   bytes 1..4    sequence number (data: frame seq; ack: cumulative next expected)
   bytes 5..6    encapsulated ethertype (data only)
   bytes 7..     encapsulated payload (data only) *)

let kind_data = 0
let kind_ack = 1
let header_size = 7

type sender_state = {
  mutable next_seq : int;
  mutable unacked : (int * Vw_net.Eth.t) list; (* ascending seq; |..| <= window *)
  pending : Vw_net.Eth.t Queue.t; (* waiting for window space *)
  mutable retries : int;
  mutable timer : Vw_stack.Host.timer option;
  mutable dup_acks : int; (* consecutive acks that moved nothing *)
}

type receiver_state = {
  mutable expected : int;
  ooo : Vw_net.Eth.t Int_tbl.t; (* out-of-order arrivals, by seq *)
}

type t = {
  host : Vw_stack.Host.t;
  config : config;
  stats : stats;
  (* per peer, keyed by [(mac :> int)] *)
  senders : sender_state Int_tbl.t;
  receivers : receiver_state Int_tbl.t;
  mutable egress_hook : Vw_stack.Host.hook_id option;
  mutable ingress_hook : Vw_stack.Host.hook_id option;
}

let stats t = t.stats

let in_flight t =
  Int_tbl.fold (fun _ s acc -> acc + List.length s.unacked) t.senders 0

let sender_for t (peer : Vw_net.Mac.t) =
  match Int_tbl.find t.senders (peer :> int) with
  | s -> s
  | exception Not_found ->
      let s =
        {
          next_seq = 0;
          unacked = [];
          pending = Queue.create ();
          retries = 0;
          timer = None;
          dup_acks = 0;
        }
      in
      Int_tbl.replace t.senders (peer :> int) s;
      s

let receiver_for t (peer : Vw_net.Mac.t) =
  match Int_tbl.find t.receivers (peer :> int) with
  | r -> r
  | exception Not_found ->
      let r = { expected = 0; ooo = Int_tbl.create 16 } in
      Int_tbl.replace t.receivers (peer :> int) r;
      r

let encapsulate ~seq (frame : Vw_net.Eth.t) =
  let payload = Bytes.create (header_size + Bytes.length frame.payload) in
  Bytes.set payload 0 (Char.chr kind_data);
  Bytes.set_int32_be payload 1 (Int32.of_int seq);
  Bytes.set_uint16_be payload 5 (frame.ethertype land 0xffff);
  Bytes.blit frame.payload 0 payload header_size (Bytes.length frame.payload);
  Vw_net.Eth.make ~dst:frame.dst ~src:frame.src
    ~ethertype:Vw_net.Eth.ethertype_rll payload

(* Transmit below the RLL hook so the frame is not re-encapsulated. *)
let transmit_below t frame =
  Vw_stack.Host.reinject t.host Vw_stack.Hook.Egress
    ~from_priority:Vw_stack.Hook.priority_rll frame

let send_ack t ~peer ~next_expected =
  let payload = Bytes.create 5 in
  Bytes.set payload 0 (Char.chr kind_ack);
  Bytes.set_int32_be payload 1 (Int32.of_int next_expected);
  let frame =
    Vw_net.Eth.make ~dst:peer
      ~src:(Vw_stack.Host.mac t.host)
      ~ethertype:Vw_net.Eth.ethertype_rll payload
  in
  t.stats.acks_sent <- t.stats.acks_sent + 1;
  transmit_below t frame

let rec arm_timer t peer s =
  (match s.timer with
  | Some timer -> Vw_stack.Host.cancel_timer t.host timer
  | None -> ());
  if s.unacked = [] then s.timer <- None
  else
    s.timer <-
      Some
        (Vw_stack.Host.set_timer t.host ~delay:t.config.retransmit_timeout
           (fun () -> on_timeout t peer s))

and on_timeout t peer s =
  match s.unacked with
  | [] -> s.timer <- None
  | (base_seq, _) :: _ ->
      s.retries <- s.retries + 1;
      if s.retries > t.config.max_retries then begin
        (* Peer presumed dead for this frame: abandon the window base so the
           layer cannot wedge forever behind a crashed node. *)
        t.stats.abandoned <- t.stats.abandoned + 1;
        Log.debug (fun m ->
            m "%s: RLL abandoning seq %d to %s"
              (Vw_stack.Host.name t.host)
              base_seq (Vw_net.Mac.to_string peer));
        (match s.unacked with [] -> () | _ :: rest -> s.unacked <- rest);
        s.retries <- 0;
        refill_window t peer s;
        arm_timer t peer s
      end
      else begin
        (* Default: retransmit only the window base; a cumulative ack for
           it confirms or re-triggers the rest. The go-back-N variant
           resends the whole window — kept as an ablation knob because it
           melts down once queueing delay approaches the timeout (see
           bench/main.exe ablation). *)
        (if t.config.go_back_n then
           List.iter
             (fun (seq, frame) ->
               t.stats.retransmissions <- t.stats.retransmissions + 1;
               transmit_below t (encapsulate ~seq frame))
             s.unacked
         else
           match s.unacked with
           | (seq, frame) :: _ ->
               t.stats.retransmissions <- t.stats.retransmissions + 1;
               transmit_below t (encapsulate ~seq frame)
           | [] -> ());
        arm_timer t peer s
      end

and refill_window t peer s =
  while
    List.length s.unacked < t.config.window && not (Queue.is_empty s.pending)
  do
    let frame = Queue.pop s.pending in
    let seq = s.next_seq in
    s.next_seq <- s.next_seq + 1;
    s.unacked <- s.unacked @ [ (seq, frame) ];
    t.stats.data_sent <- t.stats.data_sent + 1;
    transmit_below t (encapsulate ~seq frame)
  done;
  ignore peer

let on_ack t peer next_expected =
  let s = sender_for t peer in
  let before = List.length s.unacked in
  s.unacked <- List.filter (fun (seq, _) -> seq >= next_expected) s.unacked;
  if List.length s.unacked < before then begin
    s.retries <- 0;
    s.dup_acks <- 0;
    refill_window t peer s;
    arm_timer t peer s
  end
  else begin
    (* A duplicate cumulative ack: the receiver is getting frames beyond a
       hole. Three in a row mean the base is lost — repair it now instead
       of stalling a full retransmission timeout. *)
    match s.unacked with
    | (seq, frame) :: _ ->
        s.dup_acks <- s.dup_acks + 1;
        if s.dup_acks = 3 then begin
          s.dup_acks <- 0;
          t.stats.retransmissions <- t.stats.retransmissions + 1;
          transmit_below t (encapsulate ~seq frame);
          arm_timer t peer s
        end
    | [] -> ()
  end

let rec deliver_in_order t r peer =
  match Int_tbl.find r.ooo r.expected with
  | frame ->
      Int_tbl.remove r.ooo r.expected;
      r.expected <- r.expected + 1;
      t.stats.delivered <- t.stats.delivered + 1;
      Vw_stack.Host.reinject t.host Vw_stack.Hook.Ingress
        ~from_priority:Vw_stack.Hook.priority_rll frame;
      deliver_in_order t r peer
  | exception Not_found -> ()

let on_data t peer seq ~ethertype ~payload ~dst ~src =
  let r = receiver_for t peer in
  if seq < r.expected then t.stats.duplicates <- t.stats.duplicates + 1
  else if (not (Int_tbl.mem r.ooo seq)) && Int_tbl.length r.ooo < 1024 then
    Int_tbl.replace r.ooo seq
      (Vw_net.Eth.make ~dst ~src ~ethertype payload);
  deliver_in_order t r peer;
  send_ack t ~peer ~next_expected:r.expected

let egress_handler t (frame : Vw_net.Eth.t) =
  if Vw_net.Mac.is_broadcast frame.dst then Vw_stack.Hook.Accept frame
  else if frame.ethertype = Vw_net.Eth.ethertype_rll then
    (* Already RLL (e.g. a re-entrant path); let it through untouched. *)
    Vw_stack.Hook.Accept frame
  else begin
    let s = sender_for t frame.dst in
    if List.length s.unacked < t.config.window then begin
      let seq = s.next_seq in
      s.next_seq <- s.next_seq + 1;
      s.unacked <- s.unacked @ [ (seq, frame) ];
      t.stats.data_sent <- t.stats.data_sent + 1;
      transmit_below t (encapsulate ~seq frame);
      if s.timer = None then arm_timer t frame.dst s
    end
    else Queue.add frame s.pending;
    Vw_stack.Hook.Stolen
  end

let ingress_handler t (frame : Vw_net.Eth.t) =
  if frame.ethertype <> Vw_net.Eth.ethertype_rll then Vw_stack.Hook.Accept frame
  else begin
    let p = frame.payload in
    (if Bytes.length p >= 5 then
       let kind = Char.code (Bytes.get p 0) in
       let seq = Int32.to_int (Bytes.get_int32_be p 1) land 0xffff_ffff in
       if kind = kind_ack then on_ack t frame.src seq
       else if kind = kind_data && Bytes.length p >= header_size then begin
         let ethertype = Bytes.get_uint16_be p 5 in
         let payload = Bytes.sub p header_size (Bytes.length p - header_size) in
         on_data t frame.src seq ~ethertype ~payload ~dst:frame.dst
           ~src:frame.src
       end);
    Vw_stack.Hook.Stolen
  end

let install ?(config = default_config) host =
  let t =
    {
      host;
      config;
      stats =
        {
          data_sent = 0;
          retransmissions = 0;
          acks_sent = 0;
          delivered = 0;
          duplicates = 0;
          abandoned = 0;
        };
      senders = Int_tbl.create 8;
      receivers = Int_tbl.create 8;
      egress_hook = None;
      ingress_hook = None;
    }
  in
  t.egress_hook <-
    Some
      (Vw_stack.Host.add_hook host Vw_stack.Hook.Egress
         ~priority:Vw_stack.Hook.priority_rll ~name:"rll" (egress_handler t));
  t.ingress_hook <-
    Some
      (Vw_stack.Host.add_hook host Vw_stack.Hook.Ingress
         ~priority:Vw_stack.Hook.priority_rll ~name:"rll" (ingress_handler t));
  t

let uninstall t =
  (match t.egress_hook with
  | Some id -> Vw_stack.Host.remove_hook t.host id
  | None -> ());
  (match t.ingress_hook with
  | Some id -> Vw_stack.Host.remove_hook t.host id
  | None -> ());
  t.egress_hook <- None;
  t.ingress_hook <- None
