(* Binary min-heap ordered by (time, sequence number), keyed by ints.

   Heap position [i] holds its key in [times.(i)] and [seqs.(i)] and names
   in [slots.(i)] the cell of [cells] that holds its payload. A payload
   stays in its cell from push to take; sifting moves the three ints
   through a hole, so it stores no pointer. [slots] is a permutation of
   the cells: positions [0, size) name the queued ones, and positions
   [size, capacity) are the free list. A taken cell gets [dummy] back, so
   the queue keeps no payload alive after its event ran. *)

type 'a t = {
  dummy : 'a;
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable cells : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy () =
  {
    dummy;
    times = [||];
    seqs = [||];
    slots = [||];
    cells = [||];
    size = 0;
    next_seq = 0;
  }

let length t = t.size

(* Called only when every cell is queued: the new cells are all free. *)
let grow t =
  let cap = Array.length t.times in
  let cap' = max 8 (2 * cap) in
  let extend a = Array.append a (Array.make (cap' - cap) 0) in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.slots <- Array.append t.slots (Array.init (cap' - cap) (fun i -> cap + i));
  t.cells <- Array.append t.cells (Array.make (cap' - cap) t.dummy)

(* Move the hole at [i] up past every parent that sorts after [time].
   A pushed event has the largest seq so far, so it sorts before its
   parent only on an earlier time: equal times stay FIFO. *)
let rec sift_up (times : int array) (seqs : int array) (slots : int array) i
    time =
  if i = 0 then 0
  else
    let p = (i - 1) / 2 in
    let tp = times.(p) in
    if time < tp then begin
      times.(i) <- tp;
      seqs.(i) <- seqs.(p);
      slots.(i) <- slots.(p);
      sift_up times seqs slots p time
    end
    else i

(* Move the hole at [i] down past every child that sorts before
   ([time], [seq]), within the first [n] positions. *)
let rec sift_down (times : int array) (seqs : int array) (slots : int array) n
    i time seq =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let r = l + 1 in
    let c =
      if r >= n then l
      else
        let tl = times.(l) and tr = times.(r) in
        if tr < tl || (tr = tl && seqs.(r) < seqs.(l)) then r else l
    in
    let tc = times.(c) in
    if tc < time || (tc = time && seqs.(c) < seq) then begin
      times.(i) <- tc;
      seqs.(i) <- seqs.(c);
      slots.(i) <- slots.(c);
      sift_down times seqs slots n c time seq
    end
    else i

let push t ~time payload =
  let n = t.size in
  if n = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let cell = t.slots.(n) in
  t.cells.(cell) <- payload;
  let i = sift_up t.times t.seqs t.slots n time in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- cell;
  t.size <- n + 1

let top_time t =
  if t.size = 0 then invalid_arg "Event_queue.top_time: empty queue";
  t.times.(0)

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let cell = t.slots.(0) in
  let payload = t.cells.(cell) in
  t.cells.(cell) <- t.dummy;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* the last event fills the hole the top left *)
    let time = t.times.(n) and seq = t.seqs.(n) and last = t.slots.(n) in
    let i = sift_down t.times t.seqs t.slots n 0 time seq in
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.slots.(i) <- last
  end;
  t.slots.(n) <- cell;
  payload
