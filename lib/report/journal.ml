type record = {
  r_command : string;
  r_case : string;
  r_index : int;
  r_oracle : string;
  r_seed : int;
  r_run_seed : int option;
  r_signature : string;
  r_detail : string;
  r_repro : string option;
  r_sim_s : float option;
  r_tables_digest : string;
}

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let normalize s =
  let b = Buffer.create (String.length s) in
  let in_digits = ref false in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> if not !in_digits then (Buffer.add_char b '#'; in_digits := true)
      | c ->
          in_digits := false;
          Buffer.add_char b c)
    s;
  Buffer.contents b

let exn_constructor s =
  let s = String.trim s in
  let cut =
    match (String.index_opt s '(', String.index_opt s ' ') with
    | Some i, Some j -> min i j
    | Some i, None | None, Some i -> i
    | None, None -> String.length s
  in
  String.sub s 0 cut

let signature_of ~oracle ~diagnosis =
  let h = Digest.string (oracle ^ "\x00" ^ normalize diagnosis) in
  String.sub (Digest.to_hex h) 0 12

let digest_of_tables tables =
  Digest.to_hex (Digest.bytes (Vw_fsl.Tables_codec.to_bytes tables))

let v ?run_seed ?repro ?sim_s ?(tables_digest = "") ~command ~case ~index
    ~oracle ~seed ~detail () =
  let detail = first_line detail in
  {
    r_command = command;
    r_case = case;
    r_index = index;
    r_oracle = oracle;
    r_seed = seed;
    r_run_seed = run_seed;
    r_signature = signature_of ~oracle ~diagnosis:detail;
    r_detail = detail;
    r_repro = repro;
    r_sim_s = sim_s;
    r_tables_digest = tables_digest;
  }

let crash ?run_seed ?repro ?tables_digest ~command ~case ~index ~seed msg =
  v ?run_seed ?repro ?tables_digest ~command ~case ~index ~oracle:"worker_crash"
    ~seed ~detail:(exn_constructor msg) ()

(* --- JSON (schema "vw-failures/1") --- *)

let to_json r =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"schema\":\"vw-failures/1\"";
  add ",\"command\":\"%s\"" (Json.escape r.r_command);
  add ",\"case\":\"%s\"" (Json.escape r.r_case);
  add ",\"index\":%d" r.r_index;
  add ",\"oracle\":\"%s\"" (Json.escape r.r_oracle);
  add ",\"seed\":%d" r.r_seed;
  (match r.r_run_seed with
  | Some s -> add ",\"run_seed\":%d" s
  | None -> ());
  add ",\"signature\":\"%s\"" (Json.escape r.r_signature);
  add ",\"detail\":\"%s\"" (Json.escape r.r_detail);
  (match r.r_repro with
  | Some p -> add ",\"repro\":\"%s\"" (Json.escape p)
  | None -> ());
  (match r.r_sim_s with Some t -> add ",\"sim_s\":%.6f" t | None -> ());
  add ",\"tables_digest\":\"%s\"" (Json.escape r.r_tables_digest);
  add "}\n";
  Buffer.contents b

let of_json json =
  let str key = Option.bind (Json.mem key json) Json.to_string in
  let int key = Option.bind (Json.mem key json) Json.to_int in
  let flt key = Option.bind (Json.mem key json) Json.to_float in
  match str "schema" with
  | Some "vw-failures/1" -> (
      match
        (str "command", str "case", int "index", str "oracle", int "seed",
         str "signature", str "detail")
      with
      | ( Some r_command,
          Some r_case,
          Some r_index,
          Some r_oracle,
          Some r_seed,
          Some r_signature,
          Some r_detail ) ->
          Ok
            {
              r_command;
              r_case;
              r_index;
              r_oracle;
              r_seed;
              r_run_seed = int "run_seed";
              r_signature;
              r_detail;
              r_repro = str "repro";
              r_sim_s = flt "sim_s";
              r_tables_digest = Option.value (str "tables_digest") ~default:"";
            }
      | _ -> Error "vw-failures/1 record is missing a required field")
  | Some other -> Error (Printf.sprintf "expected vw-failures/1, got %s" other)
  | None -> Error "record has no schema tag"

let append path records =
  match
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> List.iter (fun r -> output_string oc (to_json r)) records)
  with
  | () -> Ok ()
  | exception Sys_error e -> Error e

let load path =
  match
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error e -> Error e
  with
  | Error e -> Error e
  | Ok text ->
      let lines = String.split_on_char '\n' text in
      let rec go n acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest when String.trim line = "" -> go (n + 1) acc rest
        | line :: rest -> (
            match Result.bind (Json.parse line) of_json with
            | Ok r -> go (n + 1) (r :: acc) rest
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
      in
      go 1 [] lines
