type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable samples : float list;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity; samples = [] }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.samples <- x :: t.samples

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))
let min_value t = t.min_v
let max_value t = t.max_v

let percentile t p =
  if t.n = 0 then nan
  else begin
    let arr = Array.of_list t.samples in
    Array.sort compare arr;
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
    let idx = max 0 (min (t.n - 1) (rank - 1)) in
    arr.(idx)
  end

let merge a b =
  let t = create () in
  List.iter (add t) (List.rev_append a.samples b.samples);
  t
