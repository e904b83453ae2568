type entry = {
  time : Vw_sim.Simtime.t;
  node : string;
  dir : [ `In | `Out ];
  frame : Vw_net.Eth.t;
}

(* A ring that grows toward [capacity] as frames arrive (64 slots,
   doubling), so a short run never pays for the bound. Until it is full
   the entries sit in order at [0, count); once full, recording overwrites
   the oldest entry, at [oldest], so the retained window is always the
   most recent [capacity] frames. *)
type t = {
  capacity : int;
  mutable ring : entry array;
  mutable oldest : int;
  mutable count : int; (* retained entries, <= capacity *)
  mutable dropped : int; (* overwritten entries *)
}

let create ?(capacity = 1_000_000) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = [||]; oldest = 0; count = 0; dropped = 0 }

let grow t e =
  let ring = Array.make (min t.capacity (max 64 (2 * t.count))) e in
  Array.blit t.ring 0 ring 0 t.count;
  t.ring <- ring

let record t ~time ~node ~dir frame =
  let e = { time; node; dir; frame } in
  if t.count < t.capacity then begin
    if t.count = Array.length t.ring then grow t e;
    t.ring.(t.count) <- e;
    t.count <- t.count + 1
  end
  else begin
    t.ring.(t.oldest) <- e;
    t.oldest <- (if t.oldest + 1 = t.capacity then 0 else t.oldest + 1);
    t.dropped <- t.dropped + 1
  end

let iter t f =
  let n = Array.length t.ring in
  for i = 0 to t.count - 1 do
    f t.ring.((t.oldest + i) mod n)
  done

let entries t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let length t = t.count
let dropped t = t.dropped
let truncated t = t.dropped > 0

let clear t =
  t.ring <- [||];
  t.oldest <- 0;
  t.count <- 0;
  t.dropped <- 0

let filter t pred = List.filter pred (entries t)

let count t ?node ?dir pred =
  let n = ref 0 in
  iter t (fun e ->
      if
        (match node with Some nm -> String.equal nm e.node | None -> true)
        && (match dir with Some d -> d = e.dir | None -> true)
        && pred (Vw_net.Frame_view.of_frame e.frame)
      then incr n);
  !n

let pp_entry ppf e =
  Format.fprintf ppf "%a %-8s %s %s" Vw_sim.Simtime.pp e.time e.node
    (match e.dir with `In -> "<" | `Out -> ">")
    (Vw_net.Frame_view.describe (Vw_net.Frame_view.of_frame e.frame))

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  if truncated t then
    Format.fprintf ppf "... (%d oldest entries dropped)@," t.dropped;
  iter t (fun e -> Format.fprintf ppf "%a@," pp_entry e);
  Format.pp_close_box ppf ()

(* --- pcap export ---

   Classic libpcap format (not pcapng): 24-byte global header then one
   16-byte record header per frame, all little-endian, LINKTYPE_ETHERNET.
   Readable by tcpdump/tshark/wireshark without flags. Simulated time maps
   to the epoch: ts_sec/ts_usec count from t=0 of the run. *)

let pcap_magic = 0xa1b2c3d4l
let pcap_linktype_ethernet = 1l
let pcap_snaplen = 65535l

let to_pcap t oc =
  let b = Buffer.create 4096 in
  Buffer.add_int32_le b pcap_magic;
  Buffer.add_int16_le b 2 (* version major *);
  Buffer.add_int16_le b 4 (* version minor *);
  Buffer.add_int32_le b 0l (* thiszone *);
  Buffer.add_int32_le b 0l (* sigfigs *);
  Buffer.add_int32_le b pcap_snaplen;
  Buffer.add_int32_le b pcap_linktype_ethernet;
  output_string oc (Buffer.contents b);
  iter t (fun e ->
      let payload = Vw_net.Eth.to_bytes e.frame in
      let len = Bytes.length payload in
      let sec = e.time / 1_000_000_000 in
      let usec = e.time mod 1_000_000_000 / 1000 in
      let rb = Buffer.create 16 in
      Buffer.add_int32_le rb (Int32.of_int sec);
      Buffer.add_int32_le rb (Int32.of_int usec);
      Buffer.add_int32_le rb (Int32.of_int len) (* incl_len *);
      Buffer.add_int32_le rb (Int32.of_int len) (* orig_len *);
      output_string oc (Buffer.contents rb);
      output_bytes oc payload)
