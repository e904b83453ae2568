type t = {
  mutable by_id : string array; (* ids are dense, in intern order *)
  mutable count : int;
  ids : (string, int) Hashtbl.t;
}

let max_entries = 0x10000 (* sids are u16 in the vw-events/2 slot layout *)
let max_string_len = 0xffff (* entry lengths are u16 in the file framing *)
let create () = { by_id = Array.make 8 ""; count = 0; ids = Hashtbl.create 16 }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
      if t.count >= max_entries then
        invalid_arg "Strtab.intern: string table full (max 65536 entries)";
      if String.length s > max_string_len then
        invalid_arg "Strtab.intern: string longer than 65535 bytes";
      if t.count = Array.length t.by_id then begin
        let a = Array.make (2 * t.count) "" in
        Array.blit t.by_id 0 a 0 t.count;
        t.by_id <- a
      end;
      let id = t.count in
      t.by_id.(id) <- s;
      t.count <- id + 1;
      Hashtbl.add t.ids s id;
      id

let to_list t = List.init t.count (fun i -> t.by_id.(i))
