module Ev = Vw_obs.Event
module T = Vw_fsl.Tables
module Explain = Vw_core.Explain
module Scenario = Vw_core.Scenario

let html_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let kind_color = function
  | "packet_classified" -> "#4e79a7"
  | "counter_changed" -> "#f28e2b"
  | "term_flipped" -> "#e15759"
  | "condition_rose" -> "#76b7b2"
  | "action_fired" -> "#59a14f"
  | "fault_applied" -> "#b6339c"
  | "control_sent" -> "#9c755f"
  | "control_received" -> "#bab0ac"
  | "report_raised" -> "#d62728"
  | _ -> "#333333"

let style =
  {|
  body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 72em;
         color: #1c2330; background: #fafbfc; }
  h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em;
       border-bottom: 1px solid #d7dce3; padding-bottom: .25em; }
  table { border-collapse: collapse; margin: .8em 0; }
  th, td { border: 1px solid #d7dce3; padding: .25em .7em; text-align: left;
           font-size: .92em; }
  th { background: #eef1f5; }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  .chips { display: flex; gap: .6em; flex-wrap: wrap; margin: 1em 0; }
  .chip { background: #eef1f5; border: 1px solid #d7dce3; border-radius: 1em;
          padding: .25em .9em; font-size: .9em; }
  .ok { color: #1a7f37; font-weight: 600; } .bad { color: #b91c1c;
          font-weight: 600; }
  .dead { background: #fde8e8; }
  pre { background: #f1f3f6; border: 1px solid #d7dce3; padding: .8em;
        overflow-x: auto; font-size: .85em; }
  .legend { font-size: .85em; margin: .4em 0; }
  .legend span { margin-right: 1.1em; }
  .dot { display: inline-block; width: .7em; height: .7em; border-radius: 50%;
         margin-right: .3em; vertical-align: middle; }
|}

let page ~title body =
  let b = Buffer.create 16384 in
  let title = html_escape title in
  Printf.bprintf b
    "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
     <title>%s</title>\n<style>%s</style>\n</head>\n<body>\n<h1>%s</h1>\n"
    title style title;
  body b;
  Buffer.add_string b "</body>\n</html>\n";
  Buffer.contents b

let add_summary b ~(cover : Coverage.t) ~events ?result () =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<div class=\"chips\">";
  (match result with
  | Some (r : Scenario.result) ->
      add "<span class=\"chip\">outcome: <span class=\"%s\">%s</span></span>"
        (if Scenario.passed r then "ok" else "bad")
        (html_escape (Scenario.outcome_to_string r.Scenario.outcome));
      add "<span class=\"chip\">errors: <span class=\"%s\">%d</span></span>"
        (if r.Scenario.errors = [] then "ok" else "bad")
        (List.length r.Scenario.errors);
      add "<span class=\"chip\">sim time: %.3fs</span>"
        (Vw_sim.Simtime.to_sec r.Scenario.duration)
  | None -> ());
  add "<span class=\"chip\">events: %d</span>" (List.length events);
  add "<span class=\"chip\">rule coverage: %d/%d (%.1f%%)</span>"
    (Coverage.fired_rules cover)
    (Coverage.total_rules cover)
    (Coverage.coverage_pct cover);
  add "</div>\n"

let add_coverage b (cover : Coverage.t) =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<h2 id=\"coverage\">FSL coverage</h2>\n";
  add "<table class=\"coverage\"><tr><th>rule</th><th>fired</th><th>furthest \
       stage</th></tr>\n";
  List.iter
    (fun (r : Coverage.rule_cov) ->
      add "<tr%s><td>rule %d</td><td class=\"num\">%d</td><td>%s</td></tr>\n"
        (if r.Coverage.rule_fired = 0 then " class=\"dead\"" else "")
        r.Coverage.rule r.Coverage.rule_fired
        (html_escape (Coverage.stage_name r.Coverage.furthest)))
    cover.Coverage.rules;
  add "</table>\n";
  add "<table><tr><th>filter</th><th>matched</th></tr>\n";
  List.iter
    (fun (f : Coverage.filter_cov) ->
      add "<tr%s><td>%s</td><td class=\"num\">%d</td></tr>\n"
        (if f.Coverage.matched = 0 then " class=\"dead\"" else "")
        (html_escape f.Coverage.fname)
        f.Coverage.matched)
    cover.Coverage.filters;
  add "</table>\n";
  add "<table><tr><th>counter</th><th>changes</th></tr>\n";
  List.iter
    (fun (c : Coverage.counter_cov) ->
      add "<tr%s><td>%s</td><td class=\"num\">%d</td></tr>\n"
        (if c.Coverage.changes = 0 then " class=\"dead\"" else "")
        (html_escape c.Coverage.cname)
        c.Coverage.changes)
    cover.Coverage.counters;
  add "</table>\n";
  add "<table><tr><th>term</th><th>flips</th></tr>\n";
  List.iter
    (fun (tm : Coverage.term_cov) ->
      add "<tr%s><td>t%d</td><td class=\"num\">%d</td></tr>\n"
        (if tm.Coverage.flips = 0 then " class=\"dead\"" else "")
        tm.Coverage.tid tm.Coverage.flips)
    cover.Coverage.terms;
  add "</table>\n"

(* per-node timeline: one SVG lane per node, one dot per event, colored by
   kind; capped so a long run cannot produce a hundred-megabyte file *)
let max_timeline_events = 4000

let add_timeline b (tables : T.t) events =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<h2 id=\"timeline\">Per-node event timeline</h2>\n";
  if events = [] then add "<p>No events recorded.</p>\n"
  else begin
    let nodes =
      let from_tables =
        Array.to_list tables.T.nodes |> List.map (fun n -> n.T.nname)
      in
      let extra =
        List.filter_map
          (fun (e : Ev.t) ->
            if List.mem e.node from_tables then None else Some e.node)
          events
        |> List.sort_uniq compare
      in
      from_tables @ extra
    in
    let shown =
      if List.length events <= max_timeline_events then events
      else List.filteri (fun i _ -> i < max_timeline_events) events
    in
    if List.length events > max_timeline_events then
      add "<p>Showing the first %d of %d events.</p>\n" max_timeline_events
        (List.length events);
    let t0 =
      List.fold_left (fun acc (e : Ev.t) -> min acc e.time) max_int shown
    in
    let t1 = List.fold_left (fun acc (e : Ev.t) -> max acc e.time) 0 shown in
    let span = max 1 (t1 - t0) in
    let width = 960 and lane_h = 26 and left = 90 in
    let height = (List.length nodes * lane_h) + 30 in
    add "<div class=\"legend\">";
    List.iter
      (fun k ->
        add
          "<span><span class=\"dot\" style=\"background:%s\"></span>%s</span>"
          (kind_color k) (html_escape k))
      Ev.all_kind_names;
    add "</div>\n";
    add
      "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" \
       role=\"img\" aria-label=\"event timeline\">\n"
      width height width height;
    List.iteri
      (fun i node ->
        let y = 20 + (i * lane_h) in
        add
          "<text x=\"0\" y=\"%d\" font-size=\"12\" fill=\"#1c2330\">%s</text>\n"
          (y + 4) (html_escape node);
        add
          "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#d7dce3\"/>\n"
          left y (width - 10) y)
      nodes;
    add
      "<text x=\"%d\" y=\"%d\" font-size=\"11\" fill=\"#555\">%.3fs — %.3fs \
       (simulated)</text>\n"
      left (height - 6)
      (Vw_sim.Simtime.to_sec t0)
      (Vw_sim.Simtime.to_sec t1);
    List.iter
      (fun (e : Ev.t) ->
        match
          List.find_index (fun n -> String.equal n e.node) nodes
        with
        | None -> ()
        | Some i ->
            let y = 20 + (i * lane_h) in
            let x =
              left
              + int_of_float
                  (float_of_int (e.time - t0)
                  /. float_of_int span
                  *. float_of_int (width - 10 - left))
            in
            let kind = Ev.kind_name e.body in
            add
              "<circle cx=\"%d\" cy=\"%d\" r=\"3\" fill=\"%s\"><title>#%d %s \
               %s at %.6fs</title></circle>\n"
              x y (kind_color kind) e.seq (html_escape e.node)
              (html_escape kind)
              (Vw_sim.Simtime.to_sec e.time))
      shown;
    add "</svg>\n"
  end

let add_histograms b (mv : Metrics_view.t) =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<h2 id=\"metrics\">Metrics histograms</h2>\n";
  if mv.Metrics_view.histograms = [] then add "<p>No histograms recorded.</p>\n";
  List.iter
    (fun (name, (h : Metrics_view.hist)) ->
      add "<h3>%s</h3>\n<p class=\"legend\">total %d, sum %d, max %d</p>\n"
        (html_escape name) h.Metrics_view.total h.Metrics_view.sum
        h.Metrics_view.max_observed;
      let counts = h.Metrics_view.counts in
      let bounds = h.Metrics_view.bounds in
      let peak = Array.fold_left max 1 counts in
      let bar_h = 16 in
      let height = (Array.length counts * bar_h) + 6 in
      add "<svg width=\"520\" height=\"%d\" viewBox=\"0 0 520 %d\">\n" height
        height;
      Array.iteri
        (fun i c ->
          let y = i * bar_h in
          let label =
            if i < Array.length bounds then
              Printf.sprintf "&lt;= %d" bounds.(i)
            else if Array.length bounds > 0 then
              Printf.sprintf "&gt; %d" bounds.(Array.length bounds - 1)
            else "all"
          in
          let w = c * 340 / peak in
          add
            "<text x=\"0\" y=\"%d\" font-size=\"11\" \
             fill=\"#1c2330\">%s</text>\n"
            (y + 12) label;
          add
            "<rect x=\"80\" y=\"%d\" width=\"%d\" height=\"%d\" \
             fill=\"#4e79a7\"/>\n"
            (y + 2) (max w (if c > 0 then 2 else 0)) (bar_h - 5);
          add
            "<text x=\"%d\" y=\"%d\" font-size=\"11\" fill=\"#555\">%d</text>\n"
            (88 + max w (if c > 0 then 2 else 0))
            (y + 12) c)
        counts;
      add "</svg>\n")
    mv.Metrics_view.histograms

let add_errors b (tables : T.t) events =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<h2 id=\"errors\">Reports and causal chains</h2>\n";
  let reports =
    List.filter
      (fun (e : Ev.t) ->
        match e.body with Ev.Report_raised _ -> true | _ -> false)
      events
  in
  if reports = [] then
    add "<p class=\"ok\">No STOP or FLAG_ERROR reports were raised.</p>\n"
  else begin
    let analysis = Explain.analyze tables events in
    let verdict_cache = Hashtbl.create 4 in
    let verdict_for rule =
      match Hashtbl.find_opt verdict_cache rule with
      | Some txt -> txt
      | None ->
          let txt =
            if rule >= 0 && rule < Explain.num_rules tables then
              Format.asprintf "%a"
                (Explain.pp_verdict tables ~rule)
                (Explain.explain analysis ~rule)
            else Printf.sprintf "rule %d is out of range for this script" rule
          in
          Hashtbl.replace verdict_cache rule txt;
          txt
    in
    List.iter
      (fun (e : Ev.t) ->
        match e.body with
        | Ev.Report_raised { nid; rule } -> (
            let node_name = T.node_name tables nid in
            match rule with
            | Some r ->
                add
                  "<h3 class=\"bad\">FLAG_ERROR from %s (rule %d) at \
                   %.6fs</h3>\n<pre>%s</pre>\n"
                  (html_escape node_name) r
                  (Vw_sim.Simtime.to_sec e.time)
                  (html_escape (verdict_for r))
            | None ->
                add "<h3>STOP reported by %s at %.6fs</h3>\n"
                  (html_escape node_name)
                  (Vw_sim.Simtime.to_sec e.time))
        | _ -> ())
      reports
  end

(* --- fleet dashboard (vwctl triage --html / vwctl compare --html) --- *)

(* one polyline over <= [spark_buckets] buckets of the journal's append
   order: where in the campaign's history this signature kept showing up *)
let spark_buckets = 24
let spark_w = 140
let spark_h = 26

let add_sparkline b ~total ~positions =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let nb = min spark_buckets (max 1 total) in
  let counts = Array.make nb 0 in
  List.iter
    (fun pos ->
      let i = if total <= 1 then 0 else pos * nb / total in
      let i = min (nb - 1) (max 0 i) in
      counts.(i) <- counts.(i) + 1)
    positions;
  let peak = Array.fold_left max 1 counts in
  let pt i c =
    let x =
      if nb = 1 then spark_w / 2 else 2 + (i * (spark_w - 4) / (nb - 1))
    in
    let y = spark_h - 2 - (c * (spark_h - 6) / peak) in
    Printf.sprintf "%d,%d" x y
  in
  let points =
    String.concat " " (List.init nb (fun i -> pt i counts.(i)))
  in
  add
    "<svg class=\"spark\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" \
     role=\"img\" aria-label=\"signature trend\"><polyline points=\"%s\" \
     fill=\"none\" stroke=\"#b91c1c\" stroke-width=\"1.5\"/></svg>"
    spark_w spark_h spark_w spark_h points

let add_cluster_table b ~journal ~clusters ~threshold =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<h2 id=\"signatures\">Failure signatures</h2>\n";
  if clusters = [] then add "<p class=\"ok\">The journal holds no failures.</p>\n"
  else begin
    let total = List.length journal in
    let positions_of signature =
      List.mapi (fun i (r : Journal.record) -> (i, r)) journal
      |> List.filter_map (fun (i, (r : Journal.record)) ->
             if String.equal r.Journal.r_signature signature then Some i
             else None)
    in
    add
      "<table><tr><th>signature</th><th>oracle</th><th>count</th>\
       <th>trend</th><th>seeds</th><th>diagnosis</th><th>reproducer</th>\
       </tr>\n";
    List.iter
      (fun (c : Triage.cluster) ->
        let recurring = c.Triage.count >= threshold in
        let seeds =
          let shown =
            List.filteri (fun i _ -> i < 5) c.Triage.seeds
            |> List.map string_of_int
          in
          let suffix =
            if List.length c.Triage.seeds > 5 then ", &hellip;" else ""
          in
          String.concat ", " shown ^ suffix
        in
        add "<tr%s><td><code>%s</code>%s</td><td>%s</td><td class=\"num\">%d</td><td>"
          (if recurring then " class=\"dead\"" else "")
          (html_escape c.Triage.signature)
          (if recurring then " <span class=\"bad\">recurring</span>" else "")
          (html_escape c.Triage.oracle)
          c.Triage.count;
        add_sparkline b ~total ~positions:(positions_of c.Triage.signature);
        add "</td><td>%s</td><td>%s</td><td>%s</td></tr>\n" seeds
          (html_escape c.Triage.last.Journal.r_detail)
          (match c.Triage.repro with
          | Some p -> "<code>" ^ html_escape p ^ "</code>"
          | None -> "&mdash;"))
      clusters;
    add "</table>\n"
  end

let compare_cases (a, _) (b, _) = String.compare a b

let add_scenario_health b ~journal ~(compare : Compare.t option) =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let failures_by_case = Hashtbl.create 16 in
  List.iter
    (fun (r : Journal.record) ->
      let k = r.Journal.r_case in
      Hashtbl.replace failures_by_case k
        (1 + Option.value ~default:0 (Hashtbl.find_opt failures_by_case k)))
    journal;
  match compare with
  | Some cmp ->
      add "<h2 id=\"health\">Scenario health</h2>\n";
      add
        "<table><tr><th>case</th><th>old</th><th>new</th>\
         <th>journal failures</th></tr>\n";
      let old_ok = Hashtbl.create 16 in
      List.iter
        (fun (name, ok, _) -> Hashtbl.replace old_ok name ok)
        cmp.Compare.c_old.Compare.s_entries;
      List.iter
        (fun (name, ok, _) ->
          let cell ok =
            if ok then "<span class=\"ok\">pass</span>"
            else "<span class=\"bad\">FAIL</span>"
          in
          let old_cell =
            match Hashtbl.find_opt old_ok name with
            | Some ok -> cell ok
            | None -> "&mdash;"
          in
          add "<tr><td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%d</td></tr>\n"
            (html_escape name) old_cell (cell ok)
            (Option.value ~default:0 (Hashtbl.find_opt failures_by_case name)))
        cmp.Compare.c_new.Compare.s_entries;
      add "</table>\n"
  | None ->
      if Hashtbl.length failures_by_case > 0 then begin
        add "<h2 id=\"health\">Scenario health</h2>\n";
        add "<table><tr><th>case</th><th>journal failures</th></tr>\n";
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) failures_by_case []
        |> List.sort compare_cases
        |> List.iter (fun (k, v) ->
               add "<tr><td>%s</td><td class=\"num\">%d</td></tr>\n"
                 (html_escape k) v);
        add "</table>\n"
      end

let add_compare_section b (cmp : Compare.t) =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<h2 id=\"compare\">Campaign comparison</h2>\n";
  let side_chip label (s : Compare.side) =
    add
      "<span class=\"chip\">%s: %d/%d passed, health \
       <span class=\"%s\">%.0f</span></span>"
      label s.Compare.s_passed s.Compare.s_total
      (if Compare.health s >= 90.0 then "ok" else "bad")
      (Compare.health s)
  in
  add "<div class=\"chips\">";
  side_chip "old" cmp.Compare.c_old;
  side_chip "new" cmp.Compare.c_new;
  let regs = Compare.regressions cmp in
  add "<span class=\"chip\">regressions: <span class=\"%s\">%d</span></span>"
    (if regs = [] then "ok" else "bad")
    (List.length regs);
  add "</div>\n";
  if regs <> [] then begin
    add "<ul>\n";
    List.iter (fun r -> add "<li class=\"bad\">%s</li>\n" (html_escape r)) regs;
    add "</ul>\n"
  end;
  if cmp.Compare.c_entry_changes <> [] then begin
    add "<h3>Case changes</h3>\n";
    add "<table><tr><th>case</th><th>old</th><th>new</th><th>detail</th></tr>\n";
    List.iter
      (fun (ec : Compare.entry_change) ->
        let cell = function
          | Some true -> "<span class=\"ok\">pass</span>"
          | Some false -> "<span class=\"bad\">FAIL</span>"
          | None -> "&mdash;"
        in
        add "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
          (html_escape ec.Compare.ec_name)
          (cell ec.Compare.ec_old_ok) (cell ec.Compare.ec_new_ok)
          (html_escape ec.Compare.ec_detail))
      cmp.Compare.c_entry_changes;
    add "</table>\n"
  end;
  if cmp.Compare.c_cover_comparable && cmp.Compare.c_rule_deltas <> [] then begin
    add "<h3>Rule coverage deltas</h3>\n";
    add
      "<table><tr><th>rule</th><th>old fired</th><th>new fired</th>\
       <th>old stage</th><th>new stage</th></tr>\n";
    List.iter
      (fun (rd : Compare.rule_delta) ->
        add
          "<tr%s><td>rule %d</td><td class=\"num\">%d</td>\
           <td class=\"num\">%d</td><td>%s</td><td>%s</td></tr>\n"
          (if rd.Compare.rd_new_fired < rd.Compare.rd_old_fired then
             " class=\"dead\""
           else "")
          rd.Compare.rd_rule rd.Compare.rd_old_fired rd.Compare.rd_new_fired
          (Coverage.stage_name rd.Compare.rd_old_stage)
          (Coverage.stage_name rd.Compare.rd_new_stage))
      cmp.Compare.c_rule_deltas;
    add "</table>\n"
  end;
  let name_delta_table title (ds : Compare.name_delta list) =
    if ds <> [] then begin
      add "<h3>%s</h3>\n" title;
      add "<table><tr><th>name</th><th>old</th><th>new</th></tr>\n";
      List.iter
        (fun (d : Compare.name_delta) ->
          add
            "<tr><td>%s</td><td class=\"num\">%d</td>\
             <td class=\"num\">%d</td></tr>\n"
            (html_escape d.Compare.nd_name)
            d.Compare.nd_old d.Compare.nd_new)
        ds;
      add "</table>\n"
    end
  in
  name_delta_table "Filter deltas" cmp.Compare.c_filter_deltas;
  name_delta_table "Counter deltas" cmp.Compare.c_counter_deltas;
  if cmp.Compare.c_sigs <> [] then begin
    add "<h3>Signature deltas</h3>\n";
    add
      "<table><tr><th>signature</th><th>status</th><th>oracle</th>\
       <th>old</th><th>new</th><th>diagnosis</th></tr>\n";
    List.iter
      (fun (sd : Compare.sig_delta) ->
        let status, cls =
          match sd.Compare.sd_status with
          | Compare.New -> ("NEW", "bad")
          | Compare.Fixed -> ("fixed", "ok")
          | Compare.Persisting -> ("persisting", "")
        in
        add
          "<tr><td><code>%s</code></td><td><span class=\"%s\">%s</span></td>\
           <td>%s</td><td class=\"num\">%d</td><td class=\"num\">%d</td>\
           <td>%s</td></tr>\n"
          (html_escape sd.Compare.sd_signature)
          cls status
          (html_escape sd.Compare.sd_oracle)
          sd.Compare.sd_old_count sd.Compare.sd_new_count
          (html_escape sd.Compare.sd_detail))
      cmp.Compare.c_sigs;
    add "</table>\n"
  end;
  if cmp.Compare.c_bench <> [] then begin
    add "<h3>Bench deltas</h3>\n";
    add
      "<table><tr><th>metric</th><th>old</th><th>new</th><th>delta</th>\
       <th>verdict</th></tr>\n";
    List.iter
      (fun (bm : Compare.bench_metric) ->
        add
          "<tr><td>%s</td><td class=\"num\">%.1f</td>\
           <td class=\"num\">%.1f</td><td class=\"num\">%+.1f%%</td>\
           <td><span class=\"%s\">%s</span></td></tr>\n"
          (html_escape bm.Compare.bm_metric)
          bm.Compare.bm_old bm.Compare.bm_new bm.Compare.bm_delta_pct
          (if String.equal bm.Compare.bm_verdict "regressed" then "bad"
           else "ok")
          (html_escape bm.Compare.bm_verdict))
      cmp.Compare.c_bench;
    add "</table>\n"
  end

let render_fleet ?title ?(journal = []) ?clusters ?compare
    ?(threshold = Triage.default_threshold) () =
  let clusters =
    match clusters with Some cs -> cs | None -> Triage.clusters journal
  in
  let title =
    match title with
    | Some t -> t
    | None -> "VirtualWire campaign intelligence"
  in
  page ~title @@ fun b ->
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let recurring = List.length (Triage.recurring ~threshold clusters) in
  add "<div class=\"chips\">";
  add "<span class=\"chip\">journal failures: %d</span>" (List.length journal);
  add "<span class=\"chip\">signatures: %d</span>" (List.length clusters);
  add "<span class=\"chip\">recurring (&ge;%d): <span class=\"%s\">%d</span></span>"
    threshold
    (if recurring = 0 then "ok" else "bad")
    recurring;
  add "</div>\n";
  add_cluster_table b ~journal ~clusters ~threshold;
  add_scenario_health b ~journal ~compare;
  match compare with Some cmp -> add_compare_section b cmp | None -> ()

let render ~tables ~events ?metrics ?result ?title () =
  let cover = Coverage.analyze tables events in
  let title =
    match title with
    | Some t -> t
    | None -> Printf.sprintf "VirtualWire run report — %s" cover.Coverage.scenario
  in
  page ~title @@ fun b ->
  add_summary b ~cover ~events ?result ();
  add_coverage b cover;
  add_timeline b tables events;
  (match metrics with Some mv -> add_histograms b mv | None -> ());
  add_errors b tables events
