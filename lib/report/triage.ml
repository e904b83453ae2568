type cluster = {
  signature : string;
  oracle : string;
  command : string;
  count : int;
  seeds : int list;
  first : Journal.record;
  last : Journal.record;
  repro : string option;
}

let default_threshold = 3

let clusters records =
  let order = ref [] in
  let by_sig = Hashtbl.create 16 in
  List.iter
    (fun (r : Journal.record) ->
      match Hashtbl.find_opt by_sig r.Journal.r_signature with
      | None ->
          order := r.Journal.r_signature :: !order;
          Hashtbl.replace by_sig r.Journal.r_signature [ r ]
      | Some rs -> Hashtbl.replace by_sig r.Journal.r_signature (r :: rs))
    records;
  let clusters =
    List.rev_map
      (fun signature ->
        let rs = List.rev (Hashtbl.find by_sig signature) in
        let first = List.hd rs in
        let last = List.nth rs (List.length rs - 1) in
        let seeds =
          List.fold_left
            (fun acc (r : Journal.record) ->
              if List.mem r.Journal.r_seed acc then acc
              else r.Journal.r_seed :: acc)
            [] rs
          |> List.rev
        in
        let repro =
          List.fold_left
            (fun acc (r : Journal.record) ->
              match r.Journal.r_repro with Some _ as p -> p | None -> acc)
            None rs
        in
        {
          signature;
          oracle = first.Journal.r_oracle;
          command = first.Journal.r_command;
          count = List.length rs;
          seeds;
          first;
          last;
          repro;
        })
      !order
  in
  (* count descending; ties keep first-seen journal order (the rev_map
     above yields first-seen order, and the sort is stable) *)
  List.stable_sort (fun a b -> compare b.count a.count) clusters

let recurring ?(threshold = default_threshold) cs =
  List.filter (fun c -> c.count >= threshold) cs

let read_file path =
  try
    Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let promote ~corpus_dir cs =
  match
    mkdir_p corpus_dir;
    List.filter_map
      (fun c ->
        match Option.bind c.repro read_file with
        | None -> None
        | Some contents ->
            let dest =
              Filename.concat corpus_dir
                (Printf.sprintf "sig-%s.fsl" c.signature)
            in
            let oc = open_out_bin dest in
            output_string oc contents;
            close_out oc;
            Some (c.signature, dest))
      cs
  with
  | promoted -> Ok promoted
  | exception Sys_error e -> Error e

(* --- JSON (schema "vw-triage/1") --- *)

let to_json ?(threshold = default_threshold) cs =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let total = List.fold_left (fun acc c -> acc + c.count) 0 cs in
  add "{\n  \"schema\": \"vw-triage/1\",\n";
  add "  \"failures\": %d,\n  \"clusters\": %d,\n" total (List.length cs);
  add "  \"threshold\": %d,\n  \"recurring\": %d,\n" threshold
    (List.length (recurring ~threshold cs));
  add "  \"by_signature\": [";
  List.iteri
    (fun i c ->
      add "%s    { \"signature\": \"%s\", \"oracle\": \"%s\", \
           \"command\": \"%s\", \"count\": %d, \"recurring\": %b,\n"
        (if i = 0 then "\n" else ",\n")
        (Json.escape c.signature) (Json.escape c.oracle)
        (Json.escape c.command) c.count
        (c.count >= threshold);
      add "      \"seeds\": [%s],\n"
        (String.concat ", " (List.map string_of_int c.seeds));
      add "      \"detail\": \"%s\",\n"
        (Json.escape c.last.Journal.r_detail);
      (match c.repro with
      | Some p -> add "      \"repro\": \"%s\" }" (Json.escape p)
      | None -> add "      \"repro\": null }"))
    cs;
  add "%s  ]\n}\n" (if cs = [] then "" else "\n");
  Buffer.contents b

let pp ?(threshold = default_threshold) ppf cs =
  let total = List.fold_left (fun acc c -> acc + c.count) 0 cs in
  Format.fprintf ppf "%d failure(s) in %d cluster(s), %d recurring (>= %d)@."
    total (List.length cs)
    (List.length (recurring ~threshold cs))
    threshold;
  List.iter
    (fun c ->
      Format.fprintf ppf "%s %s  %dx  %s/%s  seeds %s@."
        (if c.count >= threshold then "RECURRING" else "         ")
        c.signature c.count c.command c.oracle
        (String.concat "," (List.map string_of_int c.seeds));
      Format.fprintf ppf "          %s@." c.last.Journal.r_detail;
      match c.repro with
      | Some p -> Format.fprintf ppf "          repro: %s@." p
      | None -> ())
    cs
