type side = {
  s_dir : string;
  s_command : string;
  s_total : int;
  s_passed : int;
  s_failed : int;
  s_entries : (string * bool * string) list;
  s_cover : Coverage.t option;
  s_journal : Journal.record list;
}

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

let load_side dir =
  let path name = Filename.concat dir name in
  match read_file (path "campaign.json") with
  | Error e -> Error e
  | Ok src -> (
      match Json.parse src with
      | Error e -> Error (Printf.sprintf "%s: %s" (path "campaign.json") e)
      | Ok json -> (
          let str j key = Option.bind (Json.mem key j) Json.to_string in
          let int j key = Option.bind (Json.mem key j) Json.to_int in
          match str json "schema" with
          | Some "vw-campaign/1" -> (
              let entries =
                Option.bind (Json.mem "entries" json) Json.to_list
                |> Option.map
                     (List.filter_map (fun e ->
                          match
                            ( str e "name",
                              Option.bind (Json.mem "ok" e) Json.to_bool,
                              str e "detail" )
                          with
                          | Some name, Some ok, Some detail ->
                              Some (name, ok, detail)
                          | _ -> None))
              in
              match
                (str json "command", int json "total", int json "passed",
                 int json "failed", entries)
              with
              | Some s_command, Some s_total, Some s_passed, Some s_failed,
                Some s_entries ->
                  let s_cover =
                    if Sys.file_exists (path "campaign-cover.json") then
                      match
                        Result.bind
                          (read_file (path "campaign-cover.json"))
                          Coverage.of_json
                      with
                      | Ok c -> Some c
                      | Error _ -> None
                    else None
                  in
                  let s_journal =
                    if Sys.file_exists (path "failures.jsonl") then
                      match Journal.load (path "failures.jsonl") with
                      | Ok rs -> rs
                      | Error _ -> []
                    else []
                  in
                  Ok
                    {
                      s_dir = dir;
                      s_command;
                      s_total;
                      s_passed;
                      s_failed;
                      s_entries;
                      s_cover;
                      s_journal;
                    }
              | _ ->
                  Error
                    (Printf.sprintf "%s: missing a vw-campaign/1 field"
                       (path "campaign.json")))
          | Some other ->
              Error
                (Printf.sprintf "%s: expected schema vw-campaign/1, got %s"
                   (path "campaign.json") other)
          | None ->
              Error
                (Printf.sprintf "%s: no schema tag" (path "campaign.json"))))

let health s =
  if s.s_total = 0 then 100.0
  else
    let pass_rate = float_of_int s.s_passed /. float_of_int s.s_total in
    match s.s_cover with
    | Some c ->
        100.0 *. ((0.7 *. pass_rate) +. (0.3 *. (Coverage.coverage_pct c /. 100.0)))
    | None -> 100.0 *. pass_rate

type entry_change = {
  ec_name : string;
  ec_old_ok : bool option;
  ec_new_ok : bool option;
  ec_detail : string;
}

type rule_delta = {
  rd_rule : int;
  rd_old_fired : int;
  rd_new_fired : int;
  rd_old_stage : Coverage.stage;
  rd_new_stage : Coverage.stage;
}

type name_delta = { nd_name : string; nd_old : int; nd_new : int }
type sig_status = New | Fixed | Persisting

type sig_delta = {
  sd_signature : string;
  sd_oracle : string;
  sd_status : sig_status;
  sd_old_count : int;
  sd_new_count : int;
  sd_detail : string;
}

type bench_metric = {
  bm_metric : string;
  bm_old : float;
  bm_new : float;
  bm_delta_pct : float;
  bm_verdict : string;
}

let load_bench_delta path =
  match read_file path with
  | Error e -> Error e
  | Ok src -> (
      match Json.parse src with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok json -> (
          match
            Option.bind (Json.mem "schema" json) Json.to_string
          with
          | Some "vw-bench-delta/1" ->
              Ok
                (Option.bind (Json.mem "metrics" json) Json.to_list
                |> Option.value ~default:[]
                |> List.filter_map (fun m ->
                       match
                         ( Option.bind (Json.mem "metric" m) Json.to_string,
                           Option.bind (Json.mem "old" m) Json.to_float,
                           Option.bind (Json.mem "new" m) Json.to_float,
                           Option.bind (Json.mem "delta_pct" m) Json.to_float,
                           Option.bind (Json.mem "verdict" m) Json.to_string )
                       with
                       | Some bm_metric, Some bm_old, Some bm_new,
                         Some bm_delta_pct, Some bm_verdict ->
                           Some
                             {
                               bm_metric;
                               bm_old;
                               bm_new;
                               bm_delta_pct;
                               bm_verdict;
                             }
                       | _ -> None))
          | Some other ->
              Error
                (Printf.sprintf "%s: expected vw-bench-delta/1, got %s" path
                   other)
          | None -> Error (Printf.sprintf "%s: no schema tag" path)))

type t = {
  c_old : side;
  c_new : side;
  c_entry_changes : entry_change list;
  c_rule_deltas : rule_delta list;
  c_filter_deltas : name_delta list;
  c_counter_deltas : name_delta list;
  c_cover_comparable : bool;
  c_sigs : sig_delta list;
  c_bench : bench_metric list;
}

let entry_changes old_side new_side =
  let find entries name =
    List.find_map
      (fun (n, ok, d) -> if String.equal n name then Some (ok, d) else None)
      entries
  in
  let from_old =
    List.filter_map
      (fun (name, old_ok, old_detail) ->
        match find new_side.s_entries name with
        | Some (new_ok, new_detail) ->
            if old_ok = new_ok then None
            else
              Some
                {
                  ec_name = name;
                  ec_old_ok = Some old_ok;
                  ec_new_ok = Some new_ok;
                  ec_detail = new_detail;
                }
        | None ->
            Some
              {
                ec_name = name;
                ec_old_ok = Some old_ok;
                ec_new_ok = None;
                ec_detail = old_detail;
              })
      old_side.s_entries
  in
  let added =
    List.filter_map
      (fun (name, new_ok, new_detail) ->
        match find old_side.s_entries name with
        | Some _ -> None
        | None ->
            Some
              {
                ec_name = name;
                ec_old_ok = None;
                ec_new_ok = Some new_ok;
                ec_detail = new_detail;
              })
      new_side.s_entries
  in
  from_old @ added

let cover_deltas old_cover new_cover =
  let comparable =
    String.equal old_cover.Coverage.scenario new_cover.Coverage.scenario
    && List.length old_cover.Coverage.rules
       = List.length new_cover.Coverage.rules
  in
  if not comparable then (false, [], [], [])
  else
    let rules =
      List.filter_map
        (fun ((o : Coverage.rule_cov), (n : Coverage.rule_cov)) ->
          if
            o.Coverage.rule_fired = n.Coverage.rule_fired
            && o.Coverage.furthest = n.Coverage.furthest
          then None
          else
            Some
              {
                rd_rule = o.Coverage.rule;
                rd_old_fired = o.Coverage.rule_fired;
                rd_new_fired = n.Coverage.rule_fired;
                rd_old_stage = o.Coverage.furthest;
                rd_new_stage = n.Coverage.furthest;
              })
        (List.combine old_cover.Coverage.rules new_cover.Coverage.rules)
    in
    (* filters/counters diff by name so one added case does not misalign
       the rest of a concatenated campaign coverage *)
    let by_name get_name get_count olds news =
      let news_tbl = Hashtbl.create 16 in
      List.iter (fun x -> Hashtbl.replace news_tbl (get_name x) x) news;
      List.filter_map
        (fun o ->
          match Hashtbl.find_opt news_tbl (get_name o) with
          | Some n when get_count n <> get_count o ->
              Some
                {
                  nd_name = get_name o;
                  nd_old = get_count o;
                  nd_new = get_count n;
                }
          | _ -> None)
        olds
    in
    let filters =
      by_name
        (fun (f : Coverage.filter_cov) -> f.Coverage.fname)
        (fun (f : Coverage.filter_cov) -> f.Coverage.matched)
        old_cover.Coverage.filters new_cover.Coverage.filters
    in
    let counters =
      by_name
        (fun (c : Coverage.counter_cov) -> c.Coverage.cname)
        (fun (c : Coverage.counter_cov) -> c.Coverage.changes)
        old_cover.Coverage.counters new_cover.Coverage.counters
    in
    (true, rules, filters, counters)

let sig_deltas old_journal new_journal =
  let old_cs = Triage.clusters old_journal in
  let new_cs = Triage.clusters new_journal in
  let find cs s =
    List.find_opt (fun (c : Triage.cluster) -> String.equal c.Triage.signature s) cs
  in
  let of_cluster status old_count (c : Triage.cluster) =
    {
      sd_signature = c.Triage.signature;
      sd_oracle = c.Triage.oracle;
      sd_status = status;
      sd_old_count = old_count;
      sd_new_count = (match status with Fixed -> 0 | _ -> c.Triage.count);
      sd_detail = c.Triage.last.Journal.r_detail;
    }
  in
  let news, persisting =
    List.partition_map
      (fun (c : Triage.cluster) ->
        match find old_cs c.Triage.signature with
        | None -> Left (of_cluster New 0 c)
        | Some o -> Right (of_cluster Persisting o.Triage.count c))
      new_cs
  in
  let fixed =
    List.filter_map
      (fun (c : Triage.cluster) ->
        match find new_cs c.Triage.signature with
        | None -> Some (of_cluster Fixed c.Triage.count c)
        | Some _ -> None)
      old_cs
  in
  news @ fixed @ persisting

let analyze ?(bench = []) ~old_side ~new_side () =
  let c_cover_comparable, c_rule_deltas, c_filter_deltas, c_counter_deltas =
    match (old_side.s_cover, new_side.s_cover) with
    | Some o, Some n -> cover_deltas o n
    | _ -> (false, [], [], [])
  in
  {
    c_old = old_side;
    c_new = new_side;
    c_entry_changes = entry_changes old_side new_side;
    c_rule_deltas;
    c_filter_deltas;
    c_counter_deltas;
    c_cover_comparable;
    c_sigs = sig_deltas old_side.s_journal new_side.s_journal;
    c_bench = bench;
  }

let cover_pct side = Option.map Coverage.coverage_pct side.s_cover

let regressions t =
  let entry_regressions =
    List.filter_map
      (fun ec ->
        match (ec.ec_old_ok, ec.ec_new_ok) with
        | Some true, Some false ->
            Some (Printf.sprintf "case %s regressed: %s" ec.ec_name ec.ec_detail)
        | _ -> None)
      t.c_entry_changes
  in
  let sig_regressions =
    List.filter_map
      (fun sd ->
        match sd.sd_status with
        | New ->
            Some
              (Printf.sprintf "new failure signature %s (%s): %s"
                 sd.sd_signature sd.sd_oracle sd.sd_detail)
        | Fixed | Persisting -> None)
      t.c_sigs
  in
  let coverage_regression =
    match (cover_pct t.c_old, cover_pct t.c_new) with
    | Some o, Some n when n < o -. 0.005 ->
        [ Printf.sprintf "rule coverage dropped %.1f%% -> %.1f%%" o n ]
    | _ -> []
  in
  let bench_regressions =
    List.filter_map
      (fun bm ->
        if String.equal bm.bm_verdict "regressed" then
          Some
            (Printf.sprintf "bench %s regressed %+.1f%%" bm.bm_metric
               bm.bm_delta_pct)
        else None)
      t.c_bench
  in
  entry_regressions @ sig_regressions @ coverage_regression
  @ bench_regressions

(* --- JSON (schema "vw-compare/1") --- *)

let status_name = function
  | New -> "new"
  | Fixed -> "fixed"
  | Persisting -> "persisting"

let side_json s =
  let pct =
    match cover_pct s with
    | Some p -> Printf.sprintf "%.2f" p
    | None -> "null"
  in
  Printf.sprintf
    "{ \"dir\": \"%s\", \"command\": \"%s\", \"total\": %d, \"passed\": %d, \
     \"failed\": %d, \"coverage_pct\": %s, \"failures\": %d, \"health\": \
     %.1f }"
    (Json.escape s.s_dir) (Json.escape s.s_command) s.s_total s.s_passed
    s.s_failed pct
    (List.length s.s_journal)
    (health s)

let to_json t =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let regs = regressions t in
  add "{\n  \"schema\": \"vw-compare/1\",\n";
  add "  \"old\": %s,\n  \"new\": %s,\n" (side_json t.c_old)
    (side_json t.c_new);
  add "  \"cover_comparable\": %b,\n" t.c_cover_comparable;
  add "  \"entry_changes\": [";
  List.iteri
    (fun i ec ->
      let ok = function
        | Some true -> "true"
        | Some false -> "false"
        | None -> "null"
      in
      add "%s    { \"name\": \"%s\", \"old_ok\": %s, \"new_ok\": %s, \
           \"detail\": \"%s\" }"
        (if i = 0 then "\n" else ",\n")
        (Json.escape ec.ec_name) (ok ec.ec_old_ok) (ok ec.ec_new_ok)
        (Json.escape ec.ec_detail))
    t.c_entry_changes;
  add "%s  ],\n" (if t.c_entry_changes = [] then "" else "\n");
  add "  \"rule_deltas\": [";
  List.iteri
    (fun i rd ->
      add "%s    { \"rule\": %d, \"old_fired\": %d, \"new_fired\": %d, \
           \"old_stage\": \"%s\", \"new_stage\": \"%s\" }"
        (if i = 0 then "\n" else ",\n")
        rd.rd_rule rd.rd_old_fired rd.rd_new_fired
        (Coverage.stage_name rd.rd_old_stage)
        (Coverage.stage_name rd.rd_new_stage))
    t.c_rule_deltas;
  add "%s  ],\n" (if t.c_rule_deltas = [] then "" else "\n");
  let name_deltas key ds last =
    add "  \"%s\": [" key;
    List.iteri
      (fun i nd ->
        add "%s    { \"name\": \"%s\", \"old\": %d, \"new\": %d }"
          (if i = 0 then "\n" else ",\n")
          (Json.escape nd.nd_name) nd.nd_old nd.nd_new)
      ds;
    add "%s  ]%s\n" (if ds = [] then "" else "\n") (if last then "" else ",")
  in
  name_deltas "filter_deltas" t.c_filter_deltas false;
  name_deltas "counter_deltas" t.c_counter_deltas false;
  add "  \"signatures\": [";
  List.iteri
    (fun i sd ->
      add "%s    { \"signature\": \"%s\", \"oracle\": \"%s\", \"status\": \
           \"%s\", \"old_count\": %d, \"new_count\": %d, \"detail\": \"%s\" }"
        (if i = 0 then "\n" else ",\n")
        (Json.escape sd.sd_signature) (Json.escape sd.sd_oracle)
        (status_name sd.sd_status) sd.sd_old_count sd.sd_new_count
        (Json.escape sd.sd_detail))
    t.c_sigs;
  add "%s  ],\n" (if t.c_sigs = [] then "" else "\n");
  add "  \"bench\": [";
  List.iteri
    (fun i bm ->
      add "%s    { \"metric\": \"%s\", \"old\": %g, \"new\": %g, \
           \"delta_pct\": %.1f, \"verdict\": \"%s\" }"
        (if i = 0 then "\n" else ",\n")
        (Json.escape bm.bm_metric) bm.bm_old bm.bm_new bm.bm_delta_pct
        (Json.escape bm.bm_verdict))
    t.c_bench;
  add "%s  ],\n" (if t.c_bench = [] then "" else "\n");
  add "  \"regressions\": [";
  List.iteri
    (fun i r ->
      add "%s    \"%s\"" (if i = 0 then "\n" else ",\n") (Json.escape r))
    regs;
  add "%s  ],\n" (if regs = [] then "" else "\n");
  add "  \"regressed\": %b\n}\n" (regs <> []);
  Buffer.contents b

let pp ppf t =
  let pct side =
    match cover_pct side with
    | Some p -> Printf.sprintf "%.1f%%" p
    | None -> "n/a"
  in
  Format.fprintf ppf
    "compare: %s (old) vs %s (new)@.  old: %d/%d passed, coverage %s, %d \
     failure record(s), health %.1f@.  new: %d/%d passed, coverage %s, %d \
     failure record(s), health %.1f@."
    t.c_old.s_dir t.c_new.s_dir t.c_old.s_passed t.c_old.s_total
    (pct t.c_old)
    (List.length t.c_old.s_journal)
    (health t.c_old) t.c_new.s_passed t.c_new.s_total (pct t.c_new)
    (List.length t.c_new.s_journal)
    (health t.c_new);
  (match t.c_entry_changes with
  | [] -> Format.fprintf ppf "  cases: no changes@."
  | ecs ->
      List.iter
        (fun ec ->
          let word =
            match (ec.ec_old_ok, ec.ec_new_ok) with
            | Some true, Some false -> "REGRESSED"
            | Some false, Some true -> "fixed"
            | None, Some _ -> "added"
            | Some _, None -> "removed"
            | _ -> "changed"
          in
          Format.fprintf ppf "  case %-32s %-9s %s@." ec.ec_name word
            ec.ec_detail)
        ecs);
  if t.c_cover_comparable then
    List.iter
      (fun rd ->
        Format.fprintf ppf "  rule %-3d fired %d -> %d (%s -> %s)@."
          rd.rd_rule rd.rd_old_fired rd.rd_new_fired
          (Coverage.stage_name rd.rd_old_stage)
          (Coverage.stage_name rd.rd_new_stage))
      t.c_rule_deltas
  else Format.fprintf ppf "  coverage: structures differ, per-rule deltas skipped@.";
  List.iter
    (fun sd ->
      Format.fprintf ppf "  signature %s %-10s %s (%dx -> %dx): %s@."
        sd.sd_signature
        (status_name sd.sd_status)
        sd.sd_oracle sd.sd_old_count sd.sd_new_count sd.sd_detail)
    t.c_sigs;
  List.iter
    (fun bm ->
      Format.fprintf ppf "  bench %-45s %g -> %g (%+.1f%%) %s@." bm.bm_metric
        bm.bm_old bm.bm_new bm.bm_delta_pct bm.bm_verdict)
    t.c_bench;
  match regressions t with
  | [] -> Format.fprintf ppf "no regressions@."
  | regs ->
      Format.fprintf ppf "%d regression(s):@." (List.length regs);
      List.iter (fun r -> Format.fprintf ppf "  - %s@." r) regs
