let default_jobs () = Domain.recommended_domain_count ()
let effective_jobs ~jobs = max 1 (min jobs (default_jobs ()))

(* Aim for a few chunks per worker: enough slack that an unlucky worker
   stuck with slow jobs sheds load to the others, large enough that a
   256-trial campaign claims spans of dozens of jobs instead of hammering
   the shared counter per scenario. *)
let auto_chunk ~jobs n = max 1 (min 32 (n / (jobs * 4)))

let run_one f i =
  match f i with v -> Ok v | exception e -> Error (Printexc.to_string e)

let stops stop r = match stop with Some p -> p r | None -> false

let reduce ?stop n pairs =
  let slots = Array.make n None in
  List.iter
    (fun (i, r) ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Executor.reduce: index %d outside 0..%d" i (n - 1));
      if slots.(i) <> None then
        invalid_arg
          (Printf.sprintf "Executor.reduce: duplicate result for index %d" i);
      slots.(i) <- Some r)
    pairs;
  (* the cut is the first index satisfying [stop] — stragglers past it may
     exist in [pairs] but are dropped *)
  let rec collect i acc =
    if i >= n then List.rev acc
    else
      match slots.(i) with
      | None ->
          invalid_arg
            (Printf.sprintf "Executor.reduce: missing result for index %d" i)
      | Some r when stops stop r -> List.rev (r :: acc)
      | Some r -> collect (i + 1) (r :: acc)
  in
  collect 0 []

let run_sequential ?stop n f =
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let r = run_one f i in
      if stops stop r then List.rev (r :: acc) else go (i + 1) (r :: acc)
  in
  go 0 []

(* Jobs are coarse (a whole compiled-and-simulated scenario each), so
   self-scheduling over one atomic counter gets the load balance work
   stealing would, without per-worker deques. Spans of [chunk] indices
   are claimed from [next] in ascending order, which the early exit
   relies on: when [bound] is lowered to [i], every span starting at or
   below [i] has already been claimed, and its holder runs every index up
   to the bound. *)
let run_parallel ~pool ~jobs ~chunk ?stop n f =
  (* force the process-wide seed memo on the main domain: workers must only
     ever read it (see Vw_util.Prng.run_seed) *)
  ignore (Vw_util.Prng.run_seed ());
  let chunk =
    match chunk with Some c -> max 1 c | None -> auto_chunk ~jobs n
  in
  let next = Atomic.make 0 in
  let bound = Atomic.make max_int in
  let rec lower i =
    let b = Atomic.get bound in
    if i < b && not (Atomic.compare_and_set bound b i) then lower i
  in
  let slots = Array.make n None in
  let rec worker () =
    let lo = Atomic.fetch_and_add next chunk in
    if lo < n && lo <= Atomic.get bound then begin
      let hi = min n (lo + chunk) in
      (* a claimed span may straddle a lowered bound: never start an index
         above it (indices at or below always run, which the cut needs) *)
      let rec step i =
        if i < hi && i <= Atomic.get bound then begin
          let r = run_one f i in
          slots.(i) <- Some (i, r);
          if stops stop r then lower i;
          step (i + 1)
        end
      in
      step lo;
      worker ()
    end
  in
  (* the calling domain is the extra worker, so [jobs - 1] from the pool *)
  Pool.run pool ~workers:(jobs - 1) worker;
  reduce ?stop n (List.filter_map Fun.id (Array.to_list slots))

let map ?(jobs = 1) ?chunk ?pool ?stop n f =
  if n < 0 then invalid_arg "Executor.map: negative count";
  (* On the implicit-pool path, never run more domains than the machine
     has cores: for CPU-bound deterministic jobs, oversubscription only
     multiplies minor-GC barriers (every minor collection synchronizes
     all domains, and a parked domain must be scheduled to reach its
     safepoint). Passing an explicit [pool] opts out — benchmarks and
     tests that need to exercise the parallel path regardless of the
     host's core count. *)
  let jobs =
    match pool with
    | Some _ -> min jobs n
    | None -> min (effective_jobs ~jobs) n
  in
  if jobs <= 1 then run_sequential ?stop n f
  else
    let pool = match pool with Some p -> p | None -> Pool.global () in
    run_parallel ~pool ~jobs ~chunk ?stop n f
