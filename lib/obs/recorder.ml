type t = {
  enabled : bool;
  capacity : int;
  node : string;
  sid : int; (* node-name id in the run-shared string table *)
  mutable nid : int;
  clock : unit -> Vw_sim.Simtime.t;
  seq : int ref; (* shared across every recorder of one run *)
  (* preallocated ring of 48-byte vw-events/2 slots; the hot path writes
     straight into it with no per-event allocation *)
  mutable ring : Bytes.t;
  mutable slots : int; (* Bytes.length ring / Binlog.slot_bytes, cached *)
  mutable start : int; (* slot index of the oldest retained event *)
  mutable len : int;
  mutable dropped : int;
  mutable cause : int;
}

let null =
  {
    enabled = false;
    capacity = 0;
    node = "";
    sid = 0;
    nid = -1;
    clock = (fun () -> Vw_sim.Simtime.zero);
    seq = ref 0;
    ring = Bytes.empty;
    slots = 0;
    start = 0;
    len = 0;
    dropped = 0;
    cause = -1;
  }

let create ?(capacity = 16384) ?strings ~node ~clock ~seq () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  let strings =
    match strings with Some s -> s | None -> Strtab.create ()
  in
  {
    enabled = true;
    capacity;
    node;
    sid = Strtab.intern strings node;
    nid = -1;
    clock;
    seq;
    ring = Bytes.empty;
    slots = 0;
    start = 0;
    len = 0;
    dropped = 0;
    cause = -1;
  }

let enabled t = t.enabled
let sid t = t.sid
let set_nid t nid = t.nid <- nid
let cause t = t.cause
let set_cause t c = t.cause <- c

(* Grow the ring geometrically toward capacity. Cold: runs O(log capacity)
   times per recorder lifetime, so it stays out of line while the claim
   logic itself is open-coded in [binary_emit]. *)
let grow_ring t =
  let n = min t.capacity (max 64 (2 * t.slots)) in
  let ring = Bytes.make (n * Binlog.slot_bytes) '\000' in
  Bytes.blit t.ring 0 ring 0 (t.len * Binlog.slot_bytes);
  t.ring <- ring;
  t.slots <- n

(* [Binlog.encode_slot]'s six 64-bit stores, open-coded here because the
   classic compiler will not inline across the module boundary and the
   call (11 arguments) costs as much as the stores themselves. The slot
   layout is defined once in Binlog; the round-trip and emitter-parity
   tests in test_obs keep this copy honest. *)
external set_64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let binary_emit t ~root ~kind ~aux ~a ~b ~c =
  let seq = !(t.seq) in
  t.seq := seq + 1;
  let cause =
    if root then begin
      t.cause <- seq;
      seq
    end
    else if t.cause >= 0 then t.cause
    else seq
  in
  (* claim the next slot: grow toward capacity, then drop-oldest, counting
     each overwritten event in [dropped] *)
  let off =
    if t.len < t.capacity then begin
      if t.len = t.slots then grow_ring t;
      let i = t.start + t.len in
      let i = if i >= t.slots then i - t.slots else i in
      t.len <- t.len + 1;
      i * Binlog.slot_bytes
    end
    else begin
      let i = t.start in
      t.start <- (if t.start + 1 >= t.slots then 0 else t.start + 1);
      t.dropped <- t.dropped + 1;
      i * Binlog.slot_bytes
    end
  in
  let ring = t.ring in
  set_64u ring (off + Binlog.o_seq)
    (Int64.logor (Int64.of_int seq) (Int64.shift_left (Int64.of_int t.sid) 48));
  set_64u ring (off + Binlog.o_time)
    (Int64.of_int (t.clock ()));
  set_64u ring (off + Binlog.o_cause)
    (Int64.logor (Int64.of_int cause)
       (Int64.shift_left (Int64.of_int (t.nid land 0xffff)) 48));
  set_64u ring (off + Binlog.o_kind)
    (Int64.of_int (kind lor (aux lsl 8) lor ((a land 0xffffffff) lsl 16)));
  set_64u ring (off + Binlog.o_b) (Int64.of_int b);
  set_64u ring (off + Binlog.o_c) (Int64.of_int c);
  seq

(* --- generic emitters (compat path; used by tests and cold sites) --- *)

let emit t body =
  if not t.enabled then -1
  else
    let kind, aux, a, b, c = Event.to_fields body in
    binary_emit t ~root:false ~kind ~aux ~a ~b ~c

let emit_root t body =
  if not t.enabled then -1
  else
    let kind, aux, a, b, c = Event.to_fields body in
    binary_emit t ~root:true ~kind ~aux ~a ~b ~c

(* --- specialized no-allocation emitters (engine hot path) ---

   Field layouts must mirror Event.to_fields exactly; the parity test in
   test_obs compares each specialized emitter against the generic
   [emit]. *)

let emit_packet_classified t ~point ~fid =
  if not t.enabled then -1
  else
    let aux = match point with Event.Ingress -> 0 | Event.Egress -> 1 in
    binary_emit t ~root:true ~kind:0 ~aux ~a:fid ~b:0 ~c:0

let emit_counter_changed t ~cid ~value ~delta =
  if not t.enabled then -1
  else binary_emit t ~root:false ~kind:1 ~aux:0 ~a:cid ~b:delta ~c:value

let emit_term_flipped t ~tid ~status =
  if not t.enabled then -1
  else
    binary_emit t ~root:false ~kind:2
      ~aux:(if status then 1 else 0)
      ~a:tid ~b:0 ~c:0

let emit_condition_rose t ~did =
  if not t.enabled then -1
  else binary_emit t ~root:false ~kind:3 ~aux:0 ~a:did ~b:0 ~c:0

let emit_action_fired t ~did ~aid =
  if not t.enabled then -1
  else binary_emit t ~root:false ~kind:4 ~aux:0 ~a:did ~b:aid ~c:0

let emit_fault_applied t ~did ~aid ~fault =
  if not t.enabled then -1
  else
    let aux =
      match fault with
      | Event.Drop -> 0
      | Event.Delay -> 1
      | Event.Reorder -> 2
      | Event.Dup -> 3
      | Event.Modify -> 4
    in
    binary_emit t ~root:false ~kind:5 ~aux ~a:did ~b:aid ~c:0

let emit_control_sent t ~dst_nid ~ctl =
  if not t.enabled then -1
  else
    let tag, b, c = Event.ctl_to_fields ctl in
    binary_emit t ~root:false ~kind:6 ~aux:tag ~a:dst_nid ~b ~c

let emit_control_received t ~ctl =
  if not t.enabled then -1
  else
    let tag, b, c = Event.ctl_to_fields ctl in
    binary_emit t ~root:true ~kind:7 ~aux:tag ~a:0 ~b ~c

let emit_report_raised t ~nid ~rule =
  if not t.enabled then -1
  else
    match rule with
    | None -> binary_emit t ~root:false ~kind:8 ~aux:0 ~a:nid ~b:0 ~c:0
    | Some r -> binary_emit t ~root:false ~kind:8 ~aux:1 ~a:nid ~b:r ~c:0

(* --- readout --- *)

(* the retained events from the [first]-oldest on, decoded *)
let events_from t first =
  List.init (t.len - first) (fun i ->
      let idx = t.start + first + i in
      let idx = if idx >= t.slots then idx - t.slots else idx in
      match
        Binlog.decode_slot t.ring ~off:(idx * Binlog.slot_bytes) ~node:t.node
      with
      | Ok e -> e
      | Error m -> failwith ("Recorder.events: corrupt slot: " ^ m))

let events t = events_from t 0
let newest t n = events_from t (max 0 (t.len - n))

let append_binary buf t =
  let sb = Binlog.slot_bytes in
  (* at most two contiguous regions, blitted wholesale *)
  if t.start + t.len <= t.slots then
    Buffer.add_subbytes buf t.ring (t.start * sb) (t.len * sb)
  else begin
    let first = t.slots - t.start in
    Buffer.add_subbytes buf t.ring (t.start * sb) (first * sb);
    Buffer.add_subbytes buf t.ring 0 ((t.len - first) * sb)
  end

let length t = t.len
let dropped t = t.dropped
let truncated t = t.dropped > 0

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.cause <- -1
