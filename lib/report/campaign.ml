type entry = {
  e_name : string;
  e_ok : bool;
  e_detail : string;
  e_cover : Coverage.t option;
  e_href : string option;
}

let entry ?cover ?href ~name ~ok ~detail () =
  { e_name = name; e_ok = ok; e_detail = detail; e_cover = cover; e_href = href }

type t = { command : string; entries : entry list }

let v ~command entries = { command; entries }
let total t = List.length t.entries
let passed t = List.length (List.filter (fun e -> e.e_ok) t.entries)
let failed t = total t - passed t
let ok t = failed t = 0

(* --- coverage aggregation --- *)

let concat ?(scenario = "campaign") labeled =
  (* re-index every id into one flat space and prefix names with the case
     label, so a heterogeneous suite still renders as one vw-cover/1 doc *)
  let rules = ref [] and filters = ref [] and counters = ref [] in
  let terms = ref [] in
  let r_off = ref 0 and f_off = ref 0 and c_off = ref 0 and t_off = ref 0 in
  List.iter
    (fun (label, (c : Coverage.t)) ->
      let prefix name = label ^ "/" ^ name in
      List.iter
        (fun (r : Coverage.rule_cov) ->
          rules := { r with Coverage.rule = r.Coverage.rule + !r_off } :: !rules)
        c.Coverage.rules;
      List.iter
        (fun (f : Coverage.filter_cov) ->
          filters :=
            {
              Coverage.fid = f.Coverage.fid + !f_off;
              fname = prefix f.Coverage.fname;
              matched = f.Coverage.matched;
            }
            :: !filters)
        c.Coverage.filters;
      List.iter
        (fun (cc : Coverage.counter_cov) ->
          counters :=
            {
              Coverage.cid = cc.Coverage.cid + !c_off;
              cname = prefix cc.Coverage.cname;
              changes = cc.Coverage.changes;
            }
            :: !counters)
        c.Coverage.counters;
      List.iter
        (fun (tm : Coverage.term_cov) ->
          terms := { tm with Coverage.tid = tm.Coverage.tid + !t_off } :: !terms)
        c.Coverage.terms;
      r_off := !r_off + List.length c.Coverage.rules;
      f_off := !f_off + List.length c.Coverage.filters;
      c_off := !c_off + List.length c.Coverage.counters;
      t_off := !t_off + List.length c.Coverage.terms)
    labeled;
  {
    Coverage.scenario;
    rules = List.rev !rules;
    filters = List.rev !filters;
    counters = List.rev !counters;
    terms = List.rev !terms;
  }

let iter_covers t f =
  List.iter
    (fun e -> match e.e_cover with Some c -> f ~name:e.e_name c | None -> ())
    t.entries

let coverage ?scenario t =
  match
    List.filter_map
      (fun e -> Option.map (fun c -> (e.e_name, c)) e.e_cover)
      t.entries
  with
  | [] -> None
  | labeled -> Some (concat ?scenario labeled)

(* --- JSON (schema "vw-campaign/1") --- *)

let summary_json ?(extra = []) t =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"schema\": \"vw-campaign/1\",\n  \"command\": \"%s\",\n"
    (Json.escape t.command);
  List.iter (fun (k, v) -> add "  \"%s\": %s,\n" (Json.escape k) v) extra;
  add "  \"total\": %d,\n  \"passed\": %d,\n  \"failed\": %d,\n" (total t)
    (passed t) (failed t);
  add "  \"entries\": [";
  List.iteri
    (fun i e ->
      add "%s    { \"name\": \"%s\", \"ok\": %b, \"detail\": \"%s\" }"
        (if i = 0 then "\n" else ",\n")
        (Json.escape e.e_name) e.e_ok (Json.escape e.e_detail))
    t.entries;
  add "%s  ]\n}\n" (if t.entries = [] then "" else "\n");
  Buffer.contents b

(* --- HTML index --- *)

let html_index ?title t =
  let html_escape = Html_report.html_escape in
  let title =
    match title with Some s -> s | None -> "campaign: " ^ t.command
  in
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n";
  add "<title>%s</title>\n<style>\n" (html_escape title);
  add
    "body { font-family: sans-serif; margin: 2em; color: #222; }\n\
     table { border-collapse: collapse; min-width: 40em; }\n\
     th, td { text-align: left; padding: 0.3em 0.8em; border-bottom: 1px \
     solid #ddd; }\n\
     .ok { color: #1a7f37; font-weight: bold; }\n\
     .fail { color: #cf222e; font-weight: bold; }\n\
     .summary { margin: 1em 0; }\n";
  add "</style>\n</head>\n<body>\n<h1>%s</h1>\n" (html_escape title);
  add "<p class=\"summary\">%d cases: <span class=\"ok\">%d passed</span>"
    (total t) (passed t);
  if failed t > 0 then
    add ", <span class=\"fail\">%d failed</span>" (failed t);
  add "</p>\n<table>\n<tr><th>status</th><th>case</th><th>detail</th></tr>\n";
  List.iter
    (fun e ->
      let name =
        match e.e_href with
        | Some href ->
            Printf.sprintf "<a href=\"%s\">%s</a>" (html_escape href)
              (html_escape e.e_name)
        | None -> html_escape e.e_name
      in
      add "<tr><td class=\"%s\">%s</td><td>%s</td><td>%s</td></tr>\n"
        (if e.e_ok then "ok" else "fail")
        (if e.e_ok then "OK" else "FAILED")
        name (html_escape e.e_detail))
    t.entries;
  add "</table>\n</body>\n</html>\n";
  Buffer.contents b
