type xres = {
  xr_xid : int;
  xr_label : string;
  xr_status : string;
  xr_at_ms : float option;
  xr_diagnosis : string;
}

type case = {
  cs_name : string;
  cs_ok : bool;
  cs_outcome : string;
  cs_truncated : bool;
  cs_expects : xres list;
}

let of_checked (c : Eval.checked) =
  let at_ms =
    match c.Eval.verdict with
    | Eval.Pass { at } -> Some (Vw_sim.Simtime.to_ms at)
    | Eval.Tolerance_miss { actual; _ } -> Some (Vw_sim.Simtime.to_ms actual)
    | Eval.Missed _ -> None
  in
  {
    xr_xid = c.Eval.x.Vw_fsl.Conform_ir.xid;
    xr_label = c.Eval.x.Vw_fsl.Conform_ir.x_label;
    xr_status = Eval.status_name c.Eval.verdict;
    xr_at_ms = at_ms;
    xr_diagnosis = Eval.diagnosis c.Eval.verdict;
  }

let of_result (r : Driver.case_result) =
  {
    cs_name = r.Driver.c_name;
    cs_ok = Driver.case_ok r;
    cs_outcome =
      Vw_core.Scenario.outcome_to_string r.Driver.c_scenario.Vw_core.Scenario.outcome;
    cs_truncated = r.Driver.c_truncated > 0;
    cs_expects = List.map of_checked r.Driver.c_checked;
  }

let ok cases = List.for_all (fun c -> c.cs_ok) cases

let counts cases =
  List.fold_left
    (fun (p, f) c ->
      List.fold_left
        (fun (p, f) x ->
          if x.xr_status = "pass" then (p + 1, f) else (p, f + 1))
        (p, f) c.cs_expects)
    (0, 0) cases

(* --- JSON (schema "vw-conform/1") --- *)

module Json = Vw_report.Json

let summary_json cases =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let passed, failed = counts cases in
  add "{\n";
  add "  \"schema\": \"vw-conform/1\",\n";
  add "  \"command\": \"conform\",\n";
  add "  \"cases\": %d,\n" (List.length cases);
  add "  \"expectations\": %d,\n" (passed + failed);
  add "  \"passed\": %d,\n" passed;
  add "  \"failed\": %d,\n" failed;
  add "  \"ok\": %b,\n" (ok cases);
  add "  \"results\": [";
  List.iteri
    (fun i c ->
      add "%s    {\n" (if i = 0 then "\n" else ",\n");
      add "      \"case\": \"%s\",\n" (Json.escape c.cs_name);
      add "      \"ok\": %b,\n" c.cs_ok;
      add "      \"outcome\": \"%s\",\n" (Json.escape c.cs_outcome);
      add "      \"truncated\": %b,\n" c.cs_truncated;
      add "      \"expects\": [";
      List.iteri
        (fun j x ->
          add "%s        {\n" (if j = 0 then "\n" else ",\n");
          add "          \"xid\": %d,\n" x.xr_xid;
          add "          \"label\": \"%s\",\n" (Json.escape x.xr_label);
          add "          \"status\": \"%s\",\n" (Json.escape x.xr_status);
          (match x.xr_at_ms with
          | Some ms -> add "          \"at_ms\": %g,\n" ms
          | None -> ());
          add "          \"diagnosis\": \"%s\"\n" (Json.escape x.xr_diagnosis);
          add "        }")
        c.cs_expects;
      add "%s]\n" (if c.cs_expects = [] then "" else "\n      ");
      add "    }")
    cases;
  add "%s]\n" (if cases = [] then "" else "\n  ");
  add "}\n";
  Buffer.contents b

(* --- console --- *)

let pp_case ppf c =
  Format.fprintf ppf "%-40s %s  (%s%s)@." c.cs_name
    (if c.cs_ok then "PASS" else "FAIL")
    c.cs_outcome
    (if c.cs_truncated then ", ring truncated" else "");
  List.iter
    (fun x ->
      match (x.xr_status, x.xr_at_ms) with
      | "pass", Some ms ->
          Format.fprintf ppf "  ok   #%d %s  (at %gms)@." x.xr_xid x.xr_label
            ms
      | _ ->
          Format.fprintf ppf "  FAIL #%d %s@.       %s@." x.xr_xid x.xr_label
            x.xr_diagnosis)
    c.cs_expects

let pp ppf cases =
  List.iter (pp_case ppf) cases;
  let passed, failed = counts cases in
  Format.fprintf ppf "%d/%d case(s) conform; %d expectation(s), %d failed@."
    (List.length (List.filter (fun c -> c.cs_ok) cases))
    (List.length cases) (passed + failed) failed

(* --- HTML (vwctl conform --html) --- *)

module Html = Vw_report.Html_report

let add_html_case b c =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<h2>%s <span class=\"%s\">%s</span></h2>\n" (Html.html_escape c.cs_name)
    (if c.cs_ok then "ok" else "bad")
    (if c.cs_ok then "PASS" else "FAIL");
  add "<div class=\"chips\"><span class=\"chip\">outcome: %s</span>\
       <span class=\"chip\">expectations: %d</span></div>\n"
    (Html.html_escape c.cs_outcome)
    (List.length c.cs_expects);
  add
    "<table>\n\
     <tr><th>expectation</th><th>status</th><th class=\"num\">at (ms)</th>\
     <th>diagnosis</th></tr>\n";
  List.iter
    (fun x ->
      add
        "<tr><td><code>%s</code></td><td><span class=\"%s\">%s</span></td>\
         <td class=\"num\">%s</td><td>%s</td></tr>\n"
        (Html.html_escape x.xr_label)
        (if String.equal x.xr_status "pass" then "ok" else "bad")
        (Html.html_escape x.xr_status)
        (match x.xr_at_ms with
        | Some ms -> Printf.sprintf "%g" ms
        | None -> "&mdash;")
        (Html.html_escape x.xr_diagnosis))
    c.cs_expects;
  add "</table>\n"

let html ?(title = "VirtualWire conformance report") cases =
  Html.page ~title @@ fun b ->
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let failed = List.length (List.filter (fun c -> not c.cs_ok) cases) in
  add "<div class=\"chips\">";
  add "<span class=\"chip\">suites: %d</span>" (List.length cases);
  add "<span class=\"chip\">failing: <span class=\"%s\">%d</span></span>"
    (if failed = 0 then "ok" else "bad")
    failed;
  add "</div>\n";
  List.iter (add_html_case b) cases
