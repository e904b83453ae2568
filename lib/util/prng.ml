type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = bits64 t }

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.to_int (bits64 t) land max_int in
  v mod n

let float t =
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let byte t = int t 256

let default_run_seed = 42

(* An Atomic, not a ref: the memo may be read from every worker domain of a
   parallel campaign. The computation is a pure function of the environment,
   so a lost race just recomputes the same value; compare_and_set keeps the
   published value unique. *)
let memo_run_seed = Atomic.make None

let compute_run_seed () =
  match Sys.getenv_opt "VW_SEED" with
  | None | Some "" -> default_run_seed
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some s -> s
      | None ->
          Printf.eprintf "warning: ignoring unparsable VW_SEED=%S\n%!" v;
          default_run_seed)

let rec run_seed () =
  match Atomic.get memo_run_seed with
  | Some s -> s
  | None ->
      let s = compute_run_seed () in
      if Atomic.compare_and_set memo_run_seed None (Some s) then s
      else run_seed ()

let with_seed_on_failure f =
  try f ()
  with e ->
    Printf.eprintf "randomized test failed under run seed %d; rerun with VW_SEED=%d to reproduce\n%!"
      (run_seed ()) (run_seed ());
    raise e
