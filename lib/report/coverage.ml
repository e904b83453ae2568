module Ev = Vw_obs.Event
module T = Vw_fsl.Tables
module Explain = Vw_core.Explain

type stage = Fired | Term_flip | Counter_change | Filter_match | Nothing

let stage_name = function
  | Fired -> "fired"
  | Term_flip -> "term_flip"
  | Counter_change -> "counter_change"
  | Filter_match -> "filter_match"
  | Nothing -> "nothing"

let stage_of_name = function
  | "fired" -> Some Fired
  | "term_flip" -> Some Term_flip
  | "counter_change" -> Some Counter_change
  | "filter_match" -> Some Filter_match
  | "nothing" -> Some Nothing
  | _ -> None

type rule_cov = { rule : int; rule_fired : int; furthest : stage }
type filter_cov = { fid : int; fname : string; matched : int }
type counter_cov = { cid : int; cname : string; changes : int }
type term_cov = { tid : int; flips : int }

type t = {
  scenario : string;
  rules : rule_cov list;
  filters : filter_cov list;
  counters : counter_cov list;
  terms : term_cov list;
}

let analyze (tables : T.t) events =
  let n_rules = Explain.num_rules tables in
  let n_filters = Array.length tables.T.filters in
  let n_counters = Array.length tables.T.counters in
  let n_terms = Array.length tables.T.terms in
  let rule_hits = Array.make n_rules 0 in
  let filter_hits = Array.make n_filters 0 in
  let counter_hits = Array.make n_counters 0 in
  let term_hits = Array.make n_terms 0 in
  let bump a i = if i >= 0 && i < Array.length a then a.(i) <- a.(i) + 1 in
  List.iter
    (fun (e : Ev.t) ->
      match e.body with
      | Ev.Condition_rose { did } ->
          if did >= 0 && did < Array.length tables.T.rule_of_cond then
            bump rule_hits tables.T.rule_of_cond.(did)
      | Ev.Packet_classified { fid; _ } -> bump filter_hits fid
      | Ev.Counter_changed { cid; _ } -> bump counter_hits cid
      | Ev.Term_flipped { tid; _ } -> bump term_hits tid
      | _ -> ())
    events;
  (* the Explain pass (furthest stage) is only needed for never-fired
     rules, so the common all-green run does no extra work *)
  let analysis = lazy (Explain.analyze tables events) in
  let rules =
    List.init n_rules (fun rule ->
        let fired = rule_hits.(rule) in
        let furthest =
          if fired > 0 then Fired
          else
            match Explain.explain (Lazy.force analysis) ~rule with
            | Explain.Fired _ -> Fired
            | Explain.Not_fired (Explain.Saw_term _) -> Term_flip
            | Explain.Not_fired (Explain.Saw_counter _) -> Counter_change
            | Explain.Not_fired (Explain.Saw_packet _) -> Filter_match
            | Explain.Not_fired Explain.Saw_nothing -> Nothing
        in
        { rule; rule_fired = fired; furthest })
  in
  let filters =
    List.init n_filters (fun fid ->
        { fid; fname = tables.T.filters.(fid).T.fname; matched = filter_hits.(fid) })
  in
  let counters =
    List.init n_counters (fun cid ->
        {
          cid;
          cname = tables.T.counters.(cid).T.cname;
          changes = counter_hits.(cid);
        })
  in
  let terms = List.init n_terms (fun tid -> { tid; flips = term_hits.(tid) }) in
  { scenario = tables.T.scenario_name; rules; filters; counters; terms }

let total_rules t = List.length t.rules
let fired_rules t = List.length (List.filter (fun r -> r.rule_fired > 0) t.rules)

let coverage_pct t =
  let total = total_rules t in
  if total = 0 then 100.0
  else float_of_int (fired_rules t) /. float_of_int total *. 100.0

let dead_filters t = List.filter (fun f -> f.matched = 0) t.filters
let dead_counters t = List.filter (fun c -> c.changes = 0) t.counters
let dead_terms t = List.filter (fun tm -> tm.flips = 0) t.terms

(* --- JSON (schema "vw-cover/1") --- *)

let to_json t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"schema\": \"vw-cover/1\",\n  \"scenario\": \"%s\",\n"
    (Json.escape t.scenario);
  add "  \"rules\": {\n    \"total\": %d, \"fired\": %d, \"coverage_pct\": %.2f,\n"
    (total_rules t) (fired_rules t) (coverage_pct t);
  add "    \"per_rule\": [";
  List.iteri
    (fun i r ->
      add "%s      { \"rule\": %d, \"fired\": %d, \"furthest\": \"%s\" }"
        (if i = 0 then "\n" else ",\n")
        r.rule r.rule_fired (stage_name r.furthest))
    t.rules;
  add "%s    ]\n  },\n" (if t.rules = [] then "" else "\n");
  add "  \"filters\": {\n    \"total\": %d, \"matched\": %d,\n"
    (List.length t.filters)
    (List.length t.filters - List.length (dead_filters t));
  add "    \"per_filter\": [";
  List.iteri
    (fun i f ->
      add "%s      { \"fid\": %d, \"name\": \"%s\", \"matched\": %d }"
        (if i = 0 then "\n" else ",\n")
        f.fid (Json.escape f.fname) f.matched)
    t.filters;
  add "%s    ],\n" (if t.filters = [] then "" else "\n");
  add "    \"dead\": [%s]\n  },\n"
    (String.concat ", "
       (List.map
          (fun f -> Printf.sprintf "\"%s\"" (Json.escape f.fname))
          (dead_filters t)));
  add "  \"counters\": {\n    \"total\": %d, \"changed\": %d,\n"
    (List.length t.counters)
    (List.length t.counters - List.length (dead_counters t));
  add "    \"per_counter\": [";
  List.iteri
    (fun i c ->
      add "%s      { \"cid\": %d, \"name\": \"%s\", \"changes\": %d }"
        (if i = 0 then "\n" else ",\n")
        c.cid (Json.escape c.cname) c.changes)
    t.counters;
  add "%s    ],\n" (if t.counters = [] then "" else "\n");
  add "    \"dead\": [%s]\n  },\n"
    (String.concat ", "
       (List.map
          (fun c -> Printf.sprintf "\"%s\"" (Json.escape c.cname))
          (dead_counters t)));
  add "  \"terms\": {\n    \"total\": %d, \"flipped\": %d,\n"
    (List.length t.terms)
    (List.length t.terms - List.length (dead_terms t));
  add "    \"per_term\": [";
  List.iteri
    (fun i tm ->
      add "%s      { \"tid\": %d, \"flips\": %d }"
        (if i = 0 then "\n" else ",\n")
        tm.tid tm.flips)
    t.terms;
  add "%s    ],\n" (if t.terms = [] then "" else "\n");
  add "    \"dead\": [%s]\n  }\n}\n"
    (String.concat ", "
       (List.map (fun tm -> string_of_int tm.tid) (dead_terms t)));
  Buffer.contents b

let of_json src =
  match Json.parse src with
  | Error e -> Error e
  | Ok json -> (
      let str j key = Option.bind (Json.mem key j) Json.to_string in
      let int j key = Option.bind (Json.mem key j) Json.to_int in
      let arr j sec field =
        Option.bind (Json.mem sec j) (fun s ->
            Option.bind (Json.mem field s) Json.to_list)
      in
      match str json "schema" with
      | Some "vw-cover/1" -> (
          let rules =
            Option.map
              (List.filter_map (fun r ->
                   match
                     ( int r "rule",
                       int r "fired",
                       Option.bind (str r "furthest") stage_of_name )
                   with
                   | Some rule, Some rule_fired, Some furthest ->
                       Some { rule; rule_fired; furthest }
                   | _ -> None))
              (arr json "rules" "per_rule")
          in
          let filters =
            Option.map
              (List.filter_map (fun f ->
                   match (int f "fid", str f "name", int f "matched") with
                   | Some fid, Some fname, Some matched ->
                       Some { fid; fname; matched }
                   | _ -> None))
              (arr json "filters" "per_filter")
          in
          let counters =
            Option.map
              (List.filter_map (fun c ->
                   match (int c "cid", str c "name", int c "changes") with
                   | Some cid, Some cname, Some changes ->
                       Some { cid; cname; changes }
                   | _ -> None))
              (arr json "counters" "per_counter")
          in
          let terms =
            Option.map
              (List.filter_map (fun t ->
                   match (int t "tid", int t "flips") with
                   | Some tid, Some flips -> Some { tid; flips }
                   | _ -> None))
              (arr json "terms" "per_term")
          in
          match (str json "scenario", rules, filters, counters, terms) with
          | Some scenario, Some rules, Some filters, Some counters, Some terms
            -> Ok { scenario; rules; filters; counters; terms }
          | _ -> Error "vw-cover/1 document is missing a required section")
      | Some other ->
          Error (Printf.sprintf "expected schema vw-cover/1, got %s" other)
      | None -> Error "document has no schema tag")

(* --- text rendering --- *)

let stage_hint = function
  | Fired -> "fired"
  | Term_flip -> "term flipped, condition never rose"
  | Counter_change -> "counter moved, no term flipped"
  | Filter_match -> "packet matched, no counter moved"
  | Nothing -> "nothing in its cone ever happened"

let pp ppf t =
  Format.fprintf ppf "coverage for scenario %s: %d/%d rules fired (%.1f%%)@."
    t.scenario (fired_rules t) (total_rules t) (coverage_pct t);
  Format.fprintf ppf "rules:@.";
  List.iter
    (fun r ->
      if r.rule_fired > 0 then
        Format.fprintf ppf "  rule %-3d fired %dx@." r.rule r.rule_fired
      else
        Format.fprintf ppf "  rule %-3d NEVER FIRED — furthest stage: %s@."
          r.rule (stage_hint r.furthest))
    t.rules;
  Format.fprintf ppf "filters (%d/%d matched):@."
    (List.length t.filters - List.length (dead_filters t))
    (List.length t.filters);
  List.iter
    (fun f ->
      Format.fprintf ppf "  %-24s %8d%s@." f.fname f.matched
        (if f.matched = 0 then "  (dead)" else ""))
    t.filters;
  Format.fprintf ppf "counters (%d/%d changed):@."
    (List.length t.counters - List.length (dead_counters t))
    (List.length t.counters);
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-24s %8d%s@." c.cname c.changes
        (if c.changes = 0 then "  (dead)" else ""))
    t.counters;
  Format.fprintf ppf "terms (%d/%d flipped):@."
    (List.length t.terms - List.length (dead_terms t))
    (List.length t.terms);
  List.iter
    (fun tm ->
      Format.fprintf ppf "  t%-23d %8d%s@." tm.tid tm.flips
        (if tm.flips = 0 then "  (dead)" else ""))
    t.terms
