type counter = { c_name : string; c_on : bool; mutable c_value : int }

type histogram = {
  h_name : string;
  h_on : bool;
  bounds : int array; (* ascending inclusive upper bounds *)
  counts : int array; (* length bounds + 1; last = overflow *)
  mutable h_total : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type metric = Counter of counter | Histogram of histogram

type t = {
  on : bool;
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list; (* registration order, newest first *)
}

let create () = { on = true; tbl = Hashtbl.create 16; order = [] }
let null = { on = false; tbl = Hashtbl.create 1; order = [] }
let enabled t = t.on

let default_buckets = [| 1; 2; 4; 8; 16; 32; 64; 128; 256 |]

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
      invalid_arg (Printf.sprintf "Metrics.counter: %S is a histogram" name)
  | None ->
      let c = { c_name = name; c_on = t.on; c_value = 0 } in
      if t.on then begin
        Hashtbl.replace t.tbl name (Counter c);
        t.order <- name :: t.order
      end;
      c

let histogram t ?(buckets = default_buckets) name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg (Printf.sprintf "Metrics.histogram: %S is a counter" name)
  | None ->
      let bounds = Array.copy buckets in
      Array.sort compare bounds;
      let h =
        {
          h_name = name;
          h_on = t.on;
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          h_total = 0;
          h_sum = 0;
          h_max = 0;
        }
      in
      if t.on then begin
        Hashtbl.replace t.tbl name (Histogram h);
        t.order <- name :: t.order
      end;
      h

let incr ?(by = 1) c = if c.c_on then c.c_value <- c.c_value + by
let set c v = if c.c_on then c.c_value <- v
let value c = c.c_value

let bucket_index bounds v =
  (* first bound >= v; linear — bucket arrays are small by construction *)
  let n = Array.length bounds in
  let rec go i = if i = n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if h.h_on then begin
    h.counts.(bucket_index h.bounds v) <- h.counts.(bucket_index h.bounds v) + 1;
    h.h_total <- h.h_total + 1;
    h.h_sum <- h.h_sum + v;
    if v > h.h_max then h.h_max <- v
  end

let total h = h.h_total
let sum h = h.h_sum
let max_observed h = h.h_max
let bucket_counts h = (Array.copy h.bounds, Array.copy h.counts)

let registered t =
  List.rev_map (fun name -> (name, Hashtbl.find t.tbl name)) t.order

let counters t =
  List.filter_map
    (function name, Counter c -> Some (name, c.c_value) | _ -> None)
    (registered t)

let histograms t =
  List.filter_map
    (function name, Histogram h -> Some (name, h) | _ -> None)
    (registered t)

(* --- JSON (schema "vw-metrics/1") --- *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_int_array b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    a;
  Buffer.add_char b ']'

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"vw-metrics/1\",\n  \"counters\": {";
  let cs = counters t in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b "    ";
      add_json_string b name;
      Buffer.add_string b (Printf.sprintf ": %d" v))
    cs;
  Buffer.add_string b (if cs = [] then "},\n" else "\n  },\n");
  Buffer.add_string b "  \"histograms\": {";
  let hs = histograms t in
  List.iteri
    (fun i (name, h) ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b "    ";
      add_json_string b name;
      Buffer.add_string b ": { \"bounds\": ";
      add_int_array b h.bounds;
      Buffer.add_string b ", \"counts\": ";
      add_int_array b h.counts;
      Buffer.add_string b
        (Printf.sprintf ", \"total\": %d, \"sum\": %d, \"max\": %d }" h.h_total
           h.h_sum h.h_max))
    hs;
  Buffer.add_string b (if hs = [] then "}\n}\n" else "\n  }\n}\n");
  Buffer.contents b
