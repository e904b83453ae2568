let default_jobs () = Domain.recommended_domain_count ()

let run_job plan i : _ Outcome.t =
  let job = Plan.job plan i in
  let label = Job.label job in
  match Job.run job with
  | r ->
      {
        Outcome.index = i;
        label;
        verdict =
          (match r.Job.verdict with `Pass -> Outcome.Pass | `Fail -> Fail);
        payload = Some r.Job.payload;
      }
  | exception e ->
      {
        Outcome.index = i;
        label;
        verdict = Crash (Printexc.to_string e);
        payload = None;
      }

let reduce ?stop_after ~plan_length outcomes =
  let slots = Array.make plan_length None in
  List.iter
    (fun (o : _ Outcome.t) ->
      if o.index < 0 || o.index >= plan_length then
        invalid_arg
          (Printf.sprintf "Executor.reduce: index %d outside plan of %d"
             o.index plan_length);
      if slots.(o.index) <> None then
        invalid_arg
          (Printf.sprintf "Executor.reduce: duplicate outcome for index %d"
             o.index);
      slots.(o.index) <- Some o)
    outcomes;
  (* the cut is the first plan index satisfying the predicate — stragglers
     past it may exist in [outcomes] but are dropped *)
  let cut =
    match stop_after with
    | None -> plan_length - 1
    | Some p ->
        let rec find i =
          if i >= plan_length then plan_length - 1
          else
            match slots.(i) with
            | Some o when p o -> i
            | _ -> find (i + 1)
        in
        find 0
  in
  List.init (cut + 1) (fun i ->
      match slots.(i) with
      | Some o -> o
      | None ->
          invalid_arg
            (Printf.sprintf "Executor.reduce: missing outcome for index %d"
               i))

let run_sequential ?stop_after plan =
  let n = Plan.length plan in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let o = run_job plan i in
      let stop = match stop_after with Some p -> p o | None -> false in
      if stop then List.rev (o :: acc) else go (i + 1) (o :: acc)
  in
  go 0 []

(* Aim for a few chunks per worker: enough slack that an unlucky worker
   stuck with slow jobs sheds load to the others, large enough that a
   256-trial campaign claims spans of dozens of jobs instead of hammering
   the shared counter per scenario. *)
let auto_chunk ~jobs n = max 1 (min 32 (n / (jobs * 4)))

let run_parallel ~pool ~jobs ~chunk ?stop_after plan =
  let n = Plan.length plan in
  (* force the process-wide seed memo on the main domain: workers must only
     ever read it (see Vw_util.Prng.run_seed) *)
  ignore (Vw_util.Prng.run_seed ());
  let chunk =
    match chunk with Some c -> max 1 c | None -> auto_chunk ~jobs n
  in
  let queue = Work_queue.create ~chunk ~length:n () in
  let slots = Array.make n None in
  let worker () =
    let rec loop () =
      match Work_queue.take queue with
      | None -> ()
      | Some (lo, hi) ->
          let rec step i =
            (* a claimed span may straddle a lowered bound: never start an
               index above it (indices at or below always run, which the
               reducer's cut relies on) *)
            if i < hi && i <= Work_queue.bound queue then begin
              let o = run_job plan i in
              slots.(i) <- Some o;
              (match stop_after with
              | Some p when p o -> Work_queue.cap queue i
              | _ -> ());
              step (i + 1)
            end
          in
          step lo;
          loop ()
    in
    loop ()
  in
  (* the calling domain is the extra worker, so [jobs - 1] from the pool *)
  Pool.run pool ~workers:(jobs - 1) worker;
  let outcomes =
    Array.to_list slots |> List.filter_map (fun o -> o)
  in
  reduce ?stop_after ~plan_length:n outcomes

let effective_jobs ~jobs = max 1 (min jobs (default_jobs ()))

let run ?(jobs = 1) ?chunk ?pool ?stop_after ?on_outcome plan =
  let n = Plan.length plan in
  let outcomes =
    if n = 0 then []
    else
    (* On the implicit-pool path, never run more domains than the machine
       has cores: for CPU-bound deterministic jobs, oversubscription only
       multiplies minor-GC barriers (every minor collection synchronizes
       all domains, and a parked domain must be scheduled to reach its
       safepoint). Passing an explicit [pool] opts out — benchmarks and
       tests that need to exercise the parallel path regardless of the
       host's core count. *)
      let jobs =
        match pool with
        | Some _ -> max 1 (min jobs n)
        | None -> min (effective_jobs ~jobs) n
      in
      if jobs = 1 then run_sequential ?stop_after plan
      else
        let pool = match pool with Some p -> p | None -> Pool.global () in
        run_parallel ~pool ~jobs ~chunk ?stop_after plan
  in
  (* the hook sees the final reduced list in plan order, on the calling
     domain — exactly once per returned outcome, never for discarded
     stragglers, so side effects (the failure journal) stay byte-identical
     at every [jobs] level *)
  (match on_outcome with
  | Some f -> List.iter f outcomes
  | None -> ());
  outcomes
