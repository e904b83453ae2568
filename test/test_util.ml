(* Unit and property tests for vw_util: hex codecs, the Internet checksum,
   the deterministic PRNG, the statistics accumulator, worklists and
   int-keyed tables. *)

open Vw_util

let check = Alcotest.check
let qtest = Test_seed.qtest

(* --- Hexutil --- *)

let test_of_hex_basic () =
  check Alcotest.string "plain" "deadbeef" (Hexutil.to_hex (Hexutil.of_hex "deadbeef"));
  check Alcotest.string "0x prefix" "6000" (Hexutil.to_hex (Hexutil.of_hex "0x6000"));
  check Alcotest.string "odd digits left-pad" "01" (Hexutil.to_hex (Hexutil.of_hex "0x1"));
  check Alcotest.string "bare 0010" "0010" (Hexutil.to_hex (Hexutil.of_hex "0010"));
  check Alcotest.string "uppercase" "ab" (Hexutil.to_hex (Hexutil.of_hex "AB"))

let test_of_hex_bad () =
  Alcotest.check_raises "bad digit" (Invalid_argument "Hexutil.of_hex: bad hex digit 'g'")
    (fun () -> ignore (Hexutil.of_hex "0xg1"))

let test_int_be_roundtrip () =
  let b = Bytes.create 8 in
  Hexutil.set_int_be b ~pos:2 ~len:4 0xdeadbe;
  check Alcotest.int "read back" 0xdeadbe (Hexutil.to_int_be b ~pos:2 ~len:4);
  Hexutil.set_int_be b ~pos:0 ~len:2 0xffff;
  check Alcotest.int "16-bit" 0xffff (Hexutil.to_int_be b ~pos:0 ~len:2)

let test_int_be_bounds () =
  let b = Bytes.create 4 in
  Alcotest.check_raises "overrun" (Invalid_argument "Hexutil.to_int_be: out of range")
    (fun () -> ignore (Hexutil.to_int_be b ~pos:2 ~len:4))

let test_of_hex_value () =
  check Alcotest.string "width 2" "0050" (Hexutil.to_hex (Hexutil.of_hex_value ~width:2 0x50));
  Alcotest.check_raises "does not fit"
    (Invalid_argument "Hexutil.of_hex_value: 256 does not fit in 1 bytes")
    (fun () -> ignore (Hexutil.of_hex_value ~width:1 256))

let test_masked_equal () =
  let b = Hexutil.of_hex "00112233" in
  check Alcotest.bool "exact" true
    (Hexutil.masked_equal b ~pos:1 ~pattern:(Hexutil.of_hex "1122") ~mask:None);
  check Alcotest.bool "mask low nibble" true
    (Hexutil.masked_equal b ~pos:1 ~pattern:(Hexutil.of_hex "1f")
       ~mask:(Some (Hexutil.of_hex "f0")));
  check Alcotest.bool "mismatch" false
    (Hexutil.masked_equal b ~pos:0 ~pattern:(Hexutil.of_hex "01") ~mask:None);
  check Alcotest.bool "window out of range" false
    (Hexutil.masked_equal b ~pos:3 ~pattern:(Hexutil.of_hex "3344") ~mask:None)

let test_int_be_no_alloc () =
  let b = Bytes.of_string "\x01\x02\x03\x04\x05\x06\x07" in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    acc := !acc + Hexutil.to_int_be b ~pos:(i land 3) ~len:4
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "sum"
    (2500 * (0x01020304 + 0x02030405 + 0x03040506 + 0x04050607))
    !acc;
  check (Alcotest.float 0.) "minor words for 10 000 reads" 0. words

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 64) |> map Bytes.of_string)
    (fun b -> Bytes.equal b (Hexutil.of_hex (Hexutil.to_hex b)))

(* --- Checksum --- *)

let test_checksum_known () =
  (* RFC 1071 worked example: 0001 f203 f4f5 f6f7 -> checksum 0x220d *)
  let b = Hexutil.of_hex "0001f203f4f5f6f7" in
  check Alcotest.int "rfc1071 example" 0x220d
    (Checksum.checksum b ~pos:0 ~len:8)

let test_checksum_validates () =
  let b = Hexutil.of_hex "0001f203f4f5f6f7" in
  let full = Bytes.cat b (Hexutil.of_hex_value ~width:2 0x220d) in
  check Alcotest.bool "self-validating" true
    (Checksum.is_valid full ~pos:0 ~len:(Bytes.length full))

let test_checksum_odd_length () =
  let b = Hexutil.of_hex "ff" in
  check Alcotest.int "odd tail padded" (lnot 0xff00 land 0xffff)
    (Checksum.checksum b ~pos:0 ~len:1)

let prop_checksum_detects_single_flip =
  (* Flipping any single byte in a self-checksummed buffer breaks it. *)
  QCheck.Test.make ~name:"checksum detects single byte flips" ~count:300
    QCheck.(
      pair (string_of_size (Gen.int_range 2 40)) (pair small_nat small_nat))
    (fun (s, (pos_seed, flip_seed)) ->
      let data = Bytes.of_string s in
      let csum = Checksum.checksum data ~pos:0 ~len:(Bytes.length data) in
      let full = Bytes.cat data (Hexutil.of_hex_value ~width:2 csum) in
      let pos = pos_seed mod Bytes.length data in
      let flip = 1 + (flip_seed mod 255) in
      Bytes.set full pos
        (Char.chr (Char.code (Bytes.get full pos) lxor flip));
      not (Checksum.is_valid full ~pos:0 ~len:(Bytes.length full)))

(* The byte loop [Checksum.ones_sum] replaced: the RFC 1071 sum of
   big-endian 16-bit words, an odd last byte padded with zero. *)
let reference_ones_sum ?(init = 0) b ~pos ~len =
  let acc = ref init in
  let i = ref pos in
  let stop = pos + len in
  while !i + 1 < stop do
    acc :=
      !acc
      + ((Char.code (Bytes.get b !i) lsl 8) lor Char.code (Bytes.get b (!i + 1)));
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Char.code (Bytes.get b !i) lsl 8);
  !acc

let prop_checksum_matches_reference =
  (* random or all-0xff (carry-heavy) buffers, any offset, odd and even
     lengths up to 1600, init up to 0x3ffff *)
  let gen =
    QCheck.Gen.(
      int_range 0 1700 >>= fun n ->
      bool >>= fun ones ->
      (if ones then return (String.make n '\xff') else string_size (return n))
      >>= fun s ->
      int_range 0 n >>= fun pos ->
      int_range 0 (min 1600 (n - pos)) >>= fun len ->
      int_range 0 0x3ffff >>= fun init -> return (s, pos, len, init))
  in
  QCheck.Test.make ~name:"word-wide sum finishes like the byte loop" ~count:2000
    (QCheck.make
       ~print:(fun (s, pos, len, init) ->
         Printf.sprintf "n=%d pos=%d len=%d init=%d" (String.length s) pos len
           init)
       gen)
    (fun (s, pos, len, init) ->
      let b = Bytes.of_string s in
      Checksum.finish (init + Checksum.ones_sum b ~pos ~len)
      = Checksum.finish (reference_ones_sum ~init b ~pos ~len)
      && Checksum.is_valid b ~pos ~len
         = (Checksum.finish (reference_ones_sum b ~pos ~len) = 0))

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  check Alcotest.bool "different streams" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_split_independent () =
  let parent = Prng.create ~seed:3 in
  let child = Prng.split parent in
  let c1 = Prng.bits64 child in
  (* Re-create: same parent seed, same split point gives the same child. *)
  let parent' = Prng.create ~seed:3 in
  let child' = Prng.split parent' in
  check Alcotest.int64 "split deterministic" c1 (Prng.bits64 child')

let test_prng_int_range () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let test_prng_bool_bias () =
  let g = Prng.create ~seed:13 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bool g 0.25 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  if ratio < 0.22 || ratio > 0.28 then
    Alcotest.failf "bool(0.25) ratio was %f" ratio

let test_prng_float_range () =
  let g = Prng.create ~seed:17 in
  for _ = 1 to 1000 do
    let v = Prng.float g in
    if v < 0.0 || v >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

(* --- Stats --- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "stddev" (sqrt 2.5) (Stats.stddev s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max_value s);
  check (Alcotest.float 1e-9) "p50" 3.0 (Stats.percentile s 50.);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile s 100.);
  check Alcotest.int "count" 5 (Stats.count s)

let test_stats_empty () =
  let s = Stats.create () in
  check Alcotest.bool "mean nan" true (Float.is_nan (Stats.mean s));
  check Alcotest.bool "percentile nan" true (Float.is_nan (Stats.percentile s 50.))

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.; 2. ];
  List.iter (Stats.add b) [ 3.; 4. ];
  let m = Stats.merge a b in
  check Alcotest.int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min_value s -. 1e-9
      && Stats.mean s <= Stats.max_value s +. 1e-9)

(* --- Worklist --- *)

let test_worklist_basics () =
  let w = Worklist.create 4 in
  check Alcotest.bool "empty" true (Worklist.is_empty w);
  check Alcotest.bool "first add" true (Worklist.add w 3);
  check Alcotest.bool "dup rejected" false (Worklist.add w 3);
  ignore (Worklist.add w 1);
  (* ids beyond the initial capacity grow the bitset *)
  ignore (Worklist.add w 100);
  check Alcotest.int "three members" 3 (Worklist.length w);
  check Alcotest.bool "mem" true (Worklist.mem w 100);
  check Alcotest.bool "not mem" false (Worklist.mem w 2);
  check (Alcotest.list Alcotest.int) "insertion order" [ 3; 1; 100 ]
    (Worklist.to_list w);
  Worklist.sort w;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 3; 100 ] (Worklist.to_list w);
  Worklist.clear w;
  check Alcotest.bool "cleared" true (Worklist.is_empty w);
  check Alcotest.bool "bits cleared too" false (Worklist.mem w 3);
  check Alcotest.bool "reusable after clear" true (Worklist.add w 3)

let prop_worklist_is_sort_uniq =
  QCheck.Test.make ~name:"worklist sort == List.sort_uniq" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 60) (int_bound 80))
    (fun ids ->
      let w = Worklist.create 8 in
      List.iter (fun id -> ignore (Worklist.add w id)) ids;
      Worklist.sort w;
      Worklist.to_list w = List.sort_uniq compare ids)

(* --- Int_tbl --- *)

type tbl_op =
  | Replace of int * int
  | Remove of int
  | Find of int
  | Find_opt of int
  | Mem of int

let show_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Find_opt k -> Printf.sprintf "find_opt %d" k
  | Mem k -> Printf.sprintf "mem %d" k

(* mostly few distinct keys, so operations collide; enough others that
   the table doubles twice; negative and extreme keys too *)
let gen_tbl_key =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-8) 8);
        (2, int_range (-200) 200);
        (1, map (fun k -> k lsl 40) (int_range (-4) 4));
        (1, oneofl [ min_int; max_int; 0x1000; 0x2000 ]);
      ])

let gen_tbl_op =
  QCheck.Gen.(
    let* k = gen_tbl_key and* v = int_bound 99 in
    frequency
      [
        (3, return (Replace (k, v)));
        (1, return (Remove k));
        (1, return (Find k));
        (1, return (Find_opt k));
        (1, return (Mem k));
      ])

(* Every answer, the size and the bindings left behind equal Stdlib
   [Hashtbl]'s. *)
let prop_int_tbl_is_hashtbl =
  QCheck.Test.make ~name:"Int_tbl agrees with Stdlib Hashtbl" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 400) gen_tbl_op))
    (fun ops ->
      let t = Int_tbl.create 1 and model = Hashtbl.create 1 in
      let found find tbl k =
        match find tbl k with v -> Some v | exception Not_found -> None
      in
      let sorted l = List.sort compare l in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              Int_tbl.replace t k v;
              Hashtbl.replace model k v;
              true
          | Remove k ->
              Int_tbl.remove t k;
              Hashtbl.remove model k;
              true
          | Find k -> found Int_tbl.find t k = found Hashtbl.find model k
          | Find_opt k -> Int_tbl.find_opt t k = Hashtbl.find_opt model k
          | Mem k -> Int_tbl.mem t k = Hashtbl.mem model k)
          && Int_tbl.length t = Hashtbl.length model)
        ops
      && sorted (Int_tbl.fold (fun k v acc -> (k, v) :: acc) t [])
         = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      &&
      let seen = ref [] in
      Int_tbl.iter (fun k v -> seen := (k, v) :: !seen) t;
      sorted !seen = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

(* Keys that differ only above the table's index bits still spread. An
   identity hash puts each set of 4096 in one chain; a multiply that keeps
   the product from bit 17 up, with no fold, leaves 16 in the longest
   chain for [k lsl 20] and all 4096 in one for [k lsl 44]. *)
let test_int_tbl_spread () =
  List.iter
    (fun shift ->
      let t = Int_tbl.create 16 in
      for k = 0 to 4095 do
        Int_tbl.replace t (k lsl shift) k
      done;
      let st = Int_tbl.stats t in
      check Alcotest.int (Printf.sprintf "k lsl %d: bindings" shift) 4096
        st.Hashtbl.num_bindings;
      if st.Hashtbl.max_bucket_length > 6 then
        Alcotest.failf "k lsl %d: longest chain %d of %d buckets (bound 6)" shift
          st.Hashtbl.max_bucket_length st.Hashtbl.num_buckets)
    [ 0; 20; 44 ]

let suite =
  [
    ( "util.hex",
      [
        Alcotest.test_case "of_hex basics" `Quick test_of_hex_basic;
        Alcotest.test_case "of_hex rejects junk" `Quick test_of_hex_bad;
        Alcotest.test_case "int_be roundtrip" `Quick test_int_be_roundtrip;
        Alcotest.test_case "int_be bounds" `Quick test_int_be_bounds;
        Alcotest.test_case "of_hex_value" `Quick test_of_hex_value;
        Alcotest.test_case "masked_equal" `Quick test_masked_equal;
        qtest prop_hex_roundtrip;
        Alcotest.test_case "to_int_be allocates nothing" `Quick
          test_int_be_no_alloc;
      ] );
    ( "util.checksum",
      [
        Alcotest.test_case "known value" `Quick test_checksum_known;
        Alcotest.test_case "self-validates" `Quick test_checksum_validates;
        Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
        qtest prop_checksum_detects_single_flip;
        qtest prop_checksum_matches_reference;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
        Alcotest.test_case "split deterministic" `Quick test_prng_split_independent;
        Alcotest.test_case "int range" `Quick test_prng_int_range;
        Alcotest.test_case "bool bias" `Quick test_prng_bool_bias;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "basic moments" `Quick test_stats_basic;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "merge" `Quick test_stats_merge;
        qtest prop_stats_mean_bounded;
      ] );
    ( "util.worklist",
      [
        Alcotest.test_case "dedup / order / clear" `Quick test_worklist_basics;
        qtest prop_worklist_is_sort_uniq;
      ] );
    ( "util.int_tbl",
      [
        qtest prop_int_tbl_is_hashtbl;
        Alcotest.test_case "high-bit keys spread" `Quick test_int_tbl_spread;
      ] );
  ]
