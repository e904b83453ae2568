type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Bad of int * string

let fail pos msg = raise (Bad (pos, msg))

(* recursive-descent parser over a string with an explicit cursor *)

type cursor = { src : string; len : int; mutable pos : int }

let peek c = if c.pos < c.len then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < c.len
    &&
    match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c.pos (Printf.sprintf "expected %C, found %C" ch x)
  | None -> fail c.pos (Printf.sprintf "expected %C, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= c.len && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

(* \uXXXX escapes are re-encoded as UTF-8; surrogate pairs are rare enough
   in our own schemas that a lone surrogate is just encoded as-is *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= c.len then fail c.pos "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' ->
        (if c.pos >= c.len then fail c.pos "unterminated escape";
         let e = c.src.[c.pos] in
         c.pos <- c.pos + 1;
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
             if c.pos + 4 > c.len then fail c.pos "truncated \\u escape";
             let hex = String.sub c.src c.pos 4 in
             c.pos <- c.pos + 4;
             let u =
               match int_of_string_opt ("0x" ^ hex) with
               | Some u -> u
               | None -> fail (c.pos - 4) "bad \\u escape"
             in
             add_utf8 b u
         | e -> fail (c.pos - 1) (Printf.sprintf "bad escape \\%c" e));
        go ()
    | ch -> Buffer.add_char b ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < c.len && is_num_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail start (Printf.sprintf "bad number %S" s))

(* The deepest nesting of arrays and objects a document may have. The
   tool's own schemas nest at most five levels; without a bound, a
   hostile line of [[[[... makes the parser's stack, and its time, grow
   with the input. *)
let max_depth = 512

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('[' | '{') when depth = max_depth ->
      fail c.pos (Printf.sprintf "nested deeper than %d levels" max_depth)
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c (depth + 1) in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List (List.rev (v :: acc))
          | _ -> fail c.pos "expected ',' or ']'"
        in
        items []
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth + 1) in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail c.pos "expected ',' or '}'"
        in
        members []
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected %C" ch)

let parse s =
  let c = { src = s; len = String.length s; pos = 0 } in
  match parse_value c 0 with
  | v ->
      skip_ws c;
      if c.pos < c.len then
        Error (Printf.sprintf "byte %d: trailing garbage" c.pos)
      else Ok v
  | exception Bad (pos, msg) -> Error (Printf.sprintf "byte %d: %s" pos msg)

let parse_exn s =
  match parse s with Ok v -> v | Error e -> failwith ("Json.parse: " ^ e)

let mem key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
let obj_keys = function Obj kvs -> List.map fst kvs | _ -> []

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
