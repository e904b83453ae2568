(* Order statistics, computed the way Python's [statistics] module does so
   numbers printed here can be checked against it. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* [statistics.quantiles(a, n=4)] (the default "exclusive" method):
   returns (q1, q3) *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, nan)
  else if n = 1 then (s.(0), s.(0))
  else
    let q i =
      let m = (n + 1) * i in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = m - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* linear interpolation between the closest ranks, [p] in [0, 100] *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))
