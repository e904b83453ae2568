open Vw_fsl.Tables

(* --- the linear reference, over raw frame bytes --- *)

let tuple_matches (tuple : tuple) ~bindings data =
  match tuple.t_pat with
  | Bytes_pattern pattern ->
      Vw_util.Hexutil.masked_equal data ~pos:tuple.t_offset ~pattern
        ~mask:tuple.t_mask
  | Var_pattern vid -> (
      match bindings.(vid) with
      | None -> false
      | Some pattern ->
          Vw_util.Hexutil.masked_equal data ~pos:tuple.t_offset ~pattern
            ~mask:tuple.t_mask)

let filter_matches (f : filter_entry) ~bindings data =
  List.for_all (fun tuple -> tuple_matches tuple ~bindings data) f.f_tuples

let classify_linear (t : t) ~bindings data =
  let n = Array.length t.filters in
  let rec go i =
    if i = n then None
    else if filter_matches t.filters.(i) ~bindings data then Some i
    else go (i + 1)
  in
  go 0

(* --- classification stats --- *)

type scan_stats = {
  mutable filters_scanned : int;
  mutable index_hits : int;
  mutable index_misses : int;
}

let new_scan_stats () = { filters_scanned = 0; index_hits = 0; index_misses = 0 }

(* --- matching over the compiled (SoA) filter table ---

   The engine's per-packet path, written to allocate nothing: every
   helper is a top-level function or a loop over local refs, so no
   closure is built per frame, filter or tuple (without flambda a local
   [let rec] that captures a variable is allocated on each call). *)

module C = Vw_fsl.Tables.Compiled
module Eth = Vw_net.Eth

(* A tuple that is not keyed (an 8-byte literal or a VAR): the byte loop
   over pool slices. *)
let unkeyed_matches_c (c : C.t) ~bindings (frame : Eth.t) ti =
  let pos = Array.unsafe_get c.C.tu_offset ti in
  let pat = Array.unsafe_get c.C.tu_pat ti in
  let mask_off = max 0 (Array.unsafe_get c.C.tu_mask ti) in
  let mask_len = Array.unsafe_get c.C.tu_mlen ti in
  if pat >= 0 then
    Eth.field_matches frame ~pos ~pat:c.C.pool ~pat_off:pat
      ~pat_len:(Array.unsafe_get c.C.tu_plen ti)
      ~mask:c.C.pool ~mask_off ~mask_len
  else
    match bindings.(-pat - 1) with
    | None -> false
    | Some pattern ->
        Eth.field_matches frame ~pos ~pat:pattern ~pat_off:0
          ~pat_len:(Bytes.length pattern) ~mask:c.C.pool ~mask_off ~mask_len

let empty_bucket : int array = [||]

(* The bucket the frame's discriminating field selects, or [empty_bucket];
   counts the hit or miss. [Int_tbl.find] rather than [find_opt]: a miss
   raises the preallocated [Not_found] instead of boxing every hit. *)
let bucket_c (c : C.t) s (frame : Eth.t) size =
  let off = c.C.ci_offset and len = c.C.ci_len in
  match
    if off >= 0 && off + len <= size then
      Vw_util.Int_tbl.find c.C.ci_buckets (Eth.read_window frame ~pos:off ~len)
    else raise_notrace Not_found
  with
  | fids ->
      s.index_hits <- s.index_hits + 1;
      fids
  | exception Not_found ->
      s.index_misses <- s.index_misses + 1;
      empty_bucket

(* The first match, or -1: the bucket and the fallback filters merged in
   ascending fid order. Each pass takes one filter and advances one
   cursor, so [bi + fi] is the number tested. A filter is tested by its
   key tuple ([fk_*]) first: one window, [land] mask, compare. The window
   value is reused while consecutive keys read the same (offset, len), as
   filters on one field do, and a window in the payload is read in place:
   the dev build compiles every module [-opaque], so nothing is inlined
   across modules and each [Eth.read_window] is a full call.

   Two loops, so that the common case makes no call at all. The inner one
   passes over filters whose key fails on the cached window, on a payload
   window, or on a window past the frame's end. It stops at a filter whose
   key matched or whose window lies in the header (or crosses into the
   payload); the outer one reads such a window through [Eth], then tests
   the filter's CSR tuples. *)
let classify_fid_c s (c : C.t) ~bindings (frame : Eth.t) =
  let size = Eth.size frame and payload = frame.Eth.payload in
  let header = Eth.header_size and max_key_len = C.max_key_len in
  let bucket = bucket_c c s frame size in
  let fallback = c.C.ci_fallback in
  let fk_pos = c.C.fk_pos and fk_len = c.C.fk_len in
  let fk_mask = c.C.fk_mask and fk_key = c.C.fk_key in
  let f_start = c.C.f_start in
  let tu_offset = c.C.tu_offset and tu_pat = c.C.tu_pat in
  let tu_plen = c.C.tu_plen and tu_mask = c.C.tu_mask in
  let nb = Array.length bucket and nf = Array.length fallback in
  let bi = ref 0 and fi = ref 0 and found = ref (-1) in
  (* only an in-range window is ever cached *)
  let wpos = ref (-1) and wlen = ref 0 and wval = ref 0 in
  while !found < 0 && (!bi < nb || !fi < nf) do
    let next = ref (-1) in
    while !next < 0 && (!bi < nb || !fi < nf) do
      let fid =
        if
          !bi < nb
          && (!fi >= nf
             || Array.unsafe_get bucket !bi < Array.unsafe_get fallback !fi)
        then begin
          let fid = Array.unsafe_get bucket !bi in
          incr bi;
          fid
        end
        else begin
          let fid = Array.unsafe_get fallback !fi in
          incr fi;
          fid
        end
      in
      let pos = Array.unsafe_get fk_pos fid
      and len = Array.unsafe_get fk_len fid in
      if pos = !wpos && len = !wlen then begin
        if !wval land Array.unsafe_get fk_mask fid = Array.unsafe_get fk_key fid
        then next := fid
      end
      else if pos < 0 || pos + len > size then ()
      else if pos < header then next := fid
      else begin
        let v = ref 0 in
        for i = pos - header to pos - header + len - 1 do
          v := (!v lsl 8) lor Char.code (Bytes.unsafe_get payload i)
        done;
        wpos := pos;
        wlen := len;
        wval := !v;
        if !v land Array.unsafe_get fk_mask fid = Array.unsafe_get fk_key fid
        then next := fid
      end
    done;
    let fid = !next in
    if fid >= 0 then begin
      let ok = ref true in
      let pos = Array.unsafe_get fk_pos fid
      and len = Array.unsafe_get fk_len fid in
      if pos <> !wpos || len <> !wlen then begin
        (* a header window, in range *)
        wval := Eth.read_window frame ~pos ~len;
        wpos := pos;
        wlen := len;
        ok :=
          !wval land Array.unsafe_get fk_mask fid = Array.unsafe_get fk_key fid
      end;
      let ti = ref (Array.unsafe_get f_start fid)
      and stop = Array.unsafe_get f_start (fid + 1) in
      while !ok && !ti < stop do
        let t = !ti in
        let pat = Array.unsafe_get tu_pat t
        and plen = Array.unsafe_get tu_plen t in
        (ok :=
           if pat >= 0 && plen <= max_key_len then
             let pos = Array.unsafe_get tu_offset t in
             pos >= 0
             && pos + plen <= size
             && Eth.read_window frame ~pos ~len:plen
                land Array.unsafe_get tu_mask t
                = pat
           else unkeyed_matches_c c ~bindings frame t);
        ti := t + 1
      done;
      if !ok then found := fid
    end
  done;
  s.filters_scanned <- s.filters_scanned + !bi + !fi;
  !found

let classify_frame_c ?(stats = new_scan_stats ()) (c : C.t) ~bindings
    (frame : Eth.t) =
  let fid = classify_fid_c stats c ~bindings frame in
  if fid < 0 then None else Some fid
