(* Outside-in host-time spans.

   The benchmark records a span around each call it makes into a layer's
   public functions (and around the callbacks it installs), never inside
   lib/. Spans nest on one stack: a span's self time is its duration minus
   the time its child spans cover, so the self times of every span recorded
   in a region add up to the duration of that region's outermost spans.

   Every span feeds per-layer aggregates (count, self time, self
   allocation). Raw spans (name, start, end, parent, round, request) are
   kept for the first [raw_requests] requests of each round, at most
   [raw_per_round] of them, in preallocated arrays, and written out as a
   Chrome trace at exit. Nothing here allocates per
   span, so the allocation billed to a layer is the layer's own. *)

(* bechamel's clock stub returns an unboxed int64: reading it allocates
   nothing *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let names =
  [| "sim.run"; "link.send"; "stack.rx"; "stack.tx"; "fie"; "fie.batch";
     "app"; "conform.case"; "core.deploy" |]

let sim_run = 0
let link_send = 1
let stack_rx = 2
let stack_tx = 3
let fie = 4
let fie_batch = 5
let app = 6
let conform_case = 7
let core_deploy = 8
let n_layers = Array.length names

(* --- aggregates: spans, self ns and self minor words per layer --- *)

let count = Array.make n_layers 0
let self_ns = Array.make n_layers 0
let self_words = Array.make n_layers 0.0

let raw_n = ref 0
let round_first = ref 0

let reset () =
  round_first := !raw_n;
  Array.fill count 0 n_layers 0;
  Array.fill self_ns 0 n_layers 0;
  Array.fill self_words 0 n_layers 0.0

type snapshot = {
  s_count : int array;
  s_self_ns : int array;
  s_self_words : float array;
}

let snapshot () =
  {
    s_count = Array.copy count;
    s_self_ns = Array.copy self_ns;
    s_self_words = Array.copy self_words;
  }

(* --- the open-span stack --- *)

let max_depth = 256
let st_layer = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_words = Array.make max_depth 0.0
let st_child_words = Array.make max_depth 0.0
let st_raw = Array.make max_depth (-1)
let depth = ref 0

(* --- raw spans --- *)

let raw_requests = 4096
let raw_per_round = 50_000
let raw_cap = 1 lsl 18
let request = ref 0
let round = ref 0
let raw_on = ref false
let raw_dropped = ref 0
let raw_layer = ref [||]
let raw_start = ref [||]
let raw_end = ref [||]
let raw_parent = ref [||]
let raw_round = ref [||]
let raw_req = ref [||]

let keep_raw_spans () =
  if not !raw_on then begin
    raw_on := true;
    raw_layer := Array.make raw_cap 0;
    raw_start := Array.make raw_cap 0;
    raw_end := Array.make raw_cap 0;
    raw_parent := Array.make raw_cap (-1);
    raw_round := Array.make raw_cap 0;
    raw_req := Array.make raw_cap 0
  end

let enter layer =
  let d = !depth in
  st_layer.(d) <- layer;
  st_child.(d) <- 0;
  st_child_words.(d) <- 0.0;
  st_raw.(d) <- -1;
  if !raw_on && !request < raw_requests then
    if !raw_n < raw_cap && !raw_n - !round_first < raw_per_round then begin
      let id = !raw_n in
      raw_n := id + 1;
      !raw_layer.(id) <- layer;
      !raw_parent.(id) <- (if d > 0 then st_raw.(d - 1) else -1);
      !raw_round.(id) <- !round;
      !raw_req.(id) <- !request;
      st_raw.(d) <- id
    end
    else incr raw_dropped;
  depth := d + 1;
  st_words.(d) <- Gc.minor_words ();
  st_start.(d) <- now_ns ()

let exit () =
  let t = now_ns () in
  let w = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let dur = t - st_start.(d) in
  let words = w -. st_words.(d) in
  let l = st_layer.(d) in
  count.(l) <- count.(l) + 1;
  self_ns.(l) <- self_ns.(l) + dur - st_child.(d);
  self_words.(l) <- self_words.(l) +. (words -. st_child_words.(d));
  if d > 0 then begin
    st_child.(d - 1) <- st_child.(d - 1) + dur;
    st_child_words.(d - 1) <- st_child_words.(d - 1) +. words
  end;
  let id = st_raw.(d) in
  if id >= 0 then begin
    !raw_start.(id) <- st_start.(d);
    !raw_end.(id) <- t
  end

(* Chrome trace-event JSON ("X" complete events), one lane per round;
   [args] carries the span id, its parent's id and the request id. *)
let chrome_trace buf =
  let t0 = ref max_int in
  for i = 0 to !raw_n - 1 do
    t0 := min !t0 !raw_start.(i)
  done;
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for i = 0 to !raw_n - 1 do
    Printf.bprintf buf
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
       \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
      (if i = 0 then "" else ",\n")
      names.(!raw_layer.(i)) !raw_round.(i)
      (float_of_int (!raw_start.(i) - !t0) /. 1e3)
      (float_of_int (!raw_end.(i) - !raw_start.(i)) /. 1e3)
      i !raw_parent.(i) !raw_req.(i)
  done;
  Printf.bprintf buf "\n],\"otherData\":{\"spans_dropped\":%d}}\n" !raw_dropped
