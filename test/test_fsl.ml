(* Tests for the FSL front-end: lexer, parser, compiler, table codec.
   The paper's Figure 5 and Figure 6 scripts must parse and compile. *)

open Vw_fsl

let check = Alcotest.check
let qtest = Test_seed.qtest

let parse_ok src =
  match Parser.parse src with
  | Ok script -> script
  | Error e -> Alcotest.failf "parse failed: %s" e

let compile_ok src =
  match Compile.parse_and_compile src with
  | Ok tables -> tables
  | Error e -> Alcotest.failf "compile failed: %s" e

(* --- lexer --- *)

let test_lex_basics () =
  let lexemes = Lexer.tokenize "FILTER_TABLE foo: (12 2 0x9900) >> && || !=" in
  let tokens = List.map (fun (l : Lexer.lexeme) -> l.token) lexemes in
  check Alcotest.int "count" 13 (List.length tokens);
  (match tokens with
  | Lexer.IDENT "FILTER_TABLE" :: Lexer.IDENT "foo" :: Lexer.COLON
    :: Lexer.LPAREN :: Lexer.NUMBER "12" :: Lexer.NUMBER "2"
    :: Lexer.NUMBER "0x9900" :: Lexer.RPAREN :: Lexer.ARROW :: Lexer.OP_AND
    :: Lexer.OP_OR :: Lexer.OP_NE :: Lexer.EOF :: _ ->
      ()
  | _ -> Alcotest.fail "unexpected token stream");
  ()

let test_lex_mac_ip () =
  let lexemes = Lexer.tokenize "node1 00:46:61:af:fe:23 192.168.1.1" in
  match List.map (fun (l : Lexer.lexeme) -> l.token) lexemes with
  | [ Lexer.IDENT "node1"; Lexer.MACADDR mac; Lexer.IPADDR ip; Lexer.EOF ] ->
      check Alcotest.string "mac" "00:46:61:af:fe:23" mac;
      check Alcotest.string "ip" "192.168.1.1" ip
  | _ -> Alcotest.fail "mac/ip not recognized"

let test_lex_duration () =
  let lexemes = Lexer.tokenize "SCENARIO x 1sec 500ms" in
  match List.map (fun (l : Lexer.lexeme) -> l.token) lexemes with
  | [ Lexer.IDENT "SCENARIO"; Lexer.IDENT "x"; Lexer.DURATION "1sec";
      Lexer.DURATION "500ms"; Lexer.EOF ] ->
      ()
  | _ -> Alcotest.fail "durations not recognized"

let test_lex_comments () =
  let lexemes =
    Lexer.tokenize "/* block */ a // line\nb # hash\nc"
  in
  match List.map (fun (l : Lexer.lexeme) -> l.token) lexemes with
  | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.IDENT "c"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lex_error_position () =
  match Lexer.tokenize "ab\n  @" with
  | exception Lexer.Lex_error (_, pos) ->
      check Alcotest.int "line" 2 pos.Ast.line;
      check Alcotest.int "col" 3 pos.Ast.col
  | _ -> Alcotest.fail "expected lex error"

(* --- parser: the paper's scripts --- *)

let test_parse_figure5 () =
  let script = parse_ok Vw_scripts.tcp_ss_ca in
  check Alcotest.int "vars" 2 (List.length script.vars);
  check Alcotest.int "filters" 6 (List.length script.filters);
  check Alcotest.int "nodes" 2 (List.length script.nodes);
  check Alcotest.string "scenario name" "TCP_SS_CA_algo"
    script.scenario.scenario_name;
  check Alcotest.int "counters" 8 (List.length script.scenario.counters);
  check Alcotest.int "rules" 8 (List.length script.scenario.rules);
  (* rule 1 is the TRUE init rule with 7 actions *)
  let init = List.hd script.scenario.rules in
  check Alcotest.bool "TRUE condition" true (init.condition = Ast.True);
  check Alcotest.int "init actions" 7 (List.length init.actions)

let test_parse_figure5_drop_rule () =
  let script = parse_ok Vw_scripts.tcp_ss_ca in
  let drop_rule = List.nth script.scenario.rules 1 in
  (match drop_rule.condition with
  | Ast.And (Ast.Term t1, Ast.Term t2) ->
      check Alcotest.string "left counter" "SYNACK" t1.Ast.t_left;
      check Alcotest.bool "gt 0" true (t1.Ast.t_op = Ast.Gt && t1.Ast.t_right = Ast.Const 0);
      check Alcotest.bool "lt 2" true (t2.Ast.t_op = Ast.Lt && t2.Ast.t_right = Ast.Const 2)
  | _ -> Alcotest.fail "unexpected condition shape");
  match drop_rule.actions with
  | [ Ast.Drop spec ] ->
      check Alcotest.string "pkt" "TCP_synack" spec.Ast.f_pkt;
      check Alcotest.string "from" "node2" spec.Ast.f_from;
      check Alcotest.string "to" "node1" spec.Ast.f_to;
      check Alcotest.bool "recv" true (spec.Ast.f_dir = Ast.Recv)
  | _ -> Alcotest.fail "expected a bare DROP action"

let test_parse_figure6 () =
  let script = parse_ok Vw_scripts.rether_failure in
  check Alcotest.int "filters" 3 (List.length script.filters);
  check Alcotest.int "nodes" 4 (List.length script.nodes);
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "inactivity timeout" (Some 1.0) script.scenario.inactivity_timeout;
  check Alcotest.int "rules" 7 (List.length script.scenario.rules);
  (* last rule: three-way AND ending in STOP *)
  let last = List.nth script.scenario.rules 6 in
  match last.actions with
  | [ Ast.Stop ] -> ()
  | _ -> Alcotest.fail "expected STOP"

let test_parse_filter_tuple_forms () =
  let script =
    parse_ok
      {|
VAR V;
FILTER_TABLE
f1: (34 2 0x6000)
f2: (47 1 0x10 0x10)
f3: (38 4 V)
END
NODE_TABLE
n1 02:00:00:00:00:01 10.0.0.1
END
SCENARIO s
(TRUE) >> STOP;
END
|}
  in
  match script.filters with
  | [ f1; f2; f3 ] -> (
      (match f1.tuples with
      | [ { mask = None; pat = Ast.Lit "0x6000"; _ } ] -> ()
      | _ -> Alcotest.fail "f1 tuple");
      (match f2.tuples with
      | [ { mask = Some "0x10"; pat = Ast.Lit "0x10"; _ } ] -> ()
      | _ -> Alcotest.fail "f2 tuple");
      match f3.tuples with
      | [ { mask = None; pat = Ast.Var "V"; _ } ] -> ()
      | _ -> Alcotest.fail "f3 tuple")
  | _ -> Alcotest.fail "expected 3 filters"

let test_parse_all_actions () =
  let script =
    parse_ok
      {|
VAR V;
FILTER_TABLE
pkt: (12 2 0x0800), (38 4 V)
END
NODE_TABLE
a 02:00:00:00:00:01 10.0.0.1
b 02:00:00:00:00:02 10.0.0.2
END
SCENARIO all_actions
C: (pkt, a, b, SEND)
L: (a)
(TRUE) >> ASSIGN_CNTR( L, 5 ); ENABLE_CNTR( C ); DISABLE_CNTR( C );
  INCR_CNTR( L, 2 ); DECR_CNTR( L, 1 ); RESET_CNTR( L );
  SET_CURTIME( L ); ELAPSED_TIME( L );
  DROP( pkt, a, b, SEND ); DELAY( pkt, a, b, RECV, 100ms );
  REORDER( pkt, a, b, SEND, 3, [3 1 2] ); DUP( pkt, a, b, SEND );
  MODIFY( pkt, a, b, SEND, RANDOM ); MODIFY( pkt, a, b, SEND, (42 0xdead) );
  FAIL( b ); BIND_VAR( V, 0x01020304 ); FLAG_ERR; STOP;
END
|}
  in
  let rule = List.hd script.scenario.rules in
  check Alcotest.int "all 18 actions parsed" 18 (List.length rule.actions);
  match List.nth rule.actions 9 with
  | Ast.Delay (_, d) -> check (Alcotest.float 1e-9) "delay seconds" 0.1 d
  | _ -> Alcotest.fail "expected DELAY"

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad script: %s" src
  in
  expect_error "SCENARIO";
  expect_error "NODE_TABLE n1 END SCENARIO s END" (* missing mac/ip *);
  expect_error
    "NODE_TABLE n1 02:00:00:00:00:01 10.0.0.1 END SCENARIO s (TRUE) >> BOGUS_ACTION( x ); END";
  expect_error
    "NODE_TABLE n1 02:00:00:00:00:01 10.0.0.1 END SCENARIO s (X >) >> STOP; END";
  expect_error
    "FILTER_TABLE f: (1 2 0xzz) END NODE_TABLE n1 02:00:00:00:00:01 10.0.0.1 END SCENARIO s (TRUE) >> STOP; END"

let test_parse_equality_forms () =
  let script =
    parse_ok
      {|
NODE_TABLE
a 02:00:00:00:00:01 10.0.0.1
b 02:00:00:00:00:02 10.0.0.2
END
SCENARIO eq
C: (a)
((C = 1)) >> STOP;
((C == 2)) >> STOP;
END
|}
  in
  check Alcotest.int "both = and == parse" 2 (List.length script.scenario.rules)

(* --- compiler --- *)

let test_compile_figure5 () =
  let t = compile_ok Vw_scripts.tcp_ss_ca in
  check Alcotest.int "filters" 6 (Array.length t.Tables.filters);
  check Alcotest.int "nodes" 2 (Array.length t.Tables.nodes);
  check Alcotest.int "counters" 8 (Array.length t.Tables.counters);
  check Alcotest.int "conditions = rules" 8 (Array.length t.Tables.conds);
  (* SYNACK is an event counter observed at node1 (RECV side) *)
  let synack = Option.get (Tables.counter_by_name t "SYNACK") in
  check Alcotest.int "SYNACK owner is node1" 0 synack.Tables.owner;
  (* SA_ACK observed at node1 (SEND side) *)
  let sa_ack = Option.get (Tables.counter_by_name t "SA_ACK") in
  check Alcotest.int "SA_ACK owner is node1" 0 sa_ack.Tables.owner;
  (* terms are deduplicated: (CWND <= SSTHRESH) used twice… *)
  check Alcotest.bool "terms deduped" true
    (Array.length t.Tables.terms < 12)

let test_compile_figure6_distribution () =
  let t = compile_ok Vw_scripts.rether_failure in
  (* CNT_DATA is observed at node4 (RECV); the rule that enables TokensTo2
     (owned by node2) must place its action on node2, so the condition's
     term status must be shipped from node4 to node2. *)
  let cnt_data = Option.get (Tables.counter_by_name t "CNT_DATA") in
  check Alcotest.int "CNT_DATA owner node4" 3 cnt_data.Tables.owner;
  let term_cnt_data =
    Array.to_list t.Tables.terms
    |> List.find (fun (term : Tables.term_entry) ->
           term.left = cnt_data.Tables.cid)
  in
  check Alcotest.int "term evaluated at node4" 3 term_cnt_data.Tables.eval_node;
  check
    (Alcotest.list Alcotest.int)
    "status shipped to node2" [ 1 ] term_cnt_data.Tables.status_subscribers;
  (* FAIL(node3) executes on node3 *)
  let fail_action =
    Array.to_list t.Tables.actions
    |> List.find (fun (a : Tables.action_entry) ->
           match a.act with Tables.A_fail _ -> true | _ -> false)
  in
  check Alcotest.int "FAIL placed on node3" 2 fail_action.Tables.exec_node

let test_compile_pattern_widths () =
  let t = compile_ok Vw_scripts.rether_failure in
  let tok = Option.get (Tables.filter_by_name t "tr_token_ack") in
  match tok.Tables.f_tuples with
  | [ _; { t_pat = Tables.Bytes_pattern b; t_len = 2; _ } ] ->
      check Alcotest.string "0010 read as hex 0x0010" "0010"
        (Vw_util.Hexutil.to_hex b)
  | _ -> Alcotest.fail "unexpected tuple shape"

(* A tiny substring helper (no Astring dependency). *)
let astring_contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_compile_error_cases () =
  let expect_error src fragment =
    match Compile.parse_and_compile src with
    | Error e ->
        if not (astring_contains e fragment) then
          Alcotest.failf "error %S does not mention %S" e fragment
    | Ok _ -> Alcotest.failf "compile should have failed (%s)" fragment
  in
  let base body =
    {|
FILTER_TABLE
pkt: (12 2 0x0800)
END
NODE_TABLE
a 02:00:00:00:00:01 10.0.0.1
b 02:00:00:00:00:02 10.0.0.2
END
SCENARIO s
|}
    ^ body ^ "\nEND"
  in
  expect_error (base "C: (pkt, a, nosuch, SEND)\n(TRUE) >> STOP;") "unknown node";
  expect_error (base "C: (nosuch, a, b, SEND)\n(TRUE) >> STOP;") "unknown packet type";
  expect_error (base "(NOSUCH > 1) >> STOP;") "unknown counter";
  expect_error (base "C: (pkt, a, a, SEND)\n(TRUE) >> STOP;") "identical endpoints";
  expect_error (base "C: (a)\n(C > 0) >> REORDER( pkt, a, b, SEND, 3, [1 1 2] );")
    "permutation";
  expect_error (base "C: (a)\n(C > 0) >> DELAY( pkt, a, b, SEND, 0ms );") "positive";
  expect_error
    ({|
FILTER_TABLE
pkt: (12 2 0xdeadbe0099)
END
NODE_TABLE
a 02:00:00:00:00:01 10.0.0.1
END
SCENARIO s
(TRUE) >> STOP;
END
|})
    "does not fit";
  expect_error "NODE_TABLE END SCENARIO s (TRUE) >> STOP; END" "NODE_TABLE is empty";
  expect_error (base "C: (a)\nC2: (a)\n(C > 0) >> BIND_VAR( V, 0x01 );")
    "undeclared variable"

let test_compile_var_width_conflict () =
  match
    Compile.parse_and_compile
      {|
VAR V;
FILTER_TABLE
f1: (38 4 V)
f2: (38 2 V)
END
NODE_TABLE
a 02:00:00:00:00:01 10.0.0.1
END
SCENARIO s
(TRUE) >> STOP;
END
|}
  with
  | Error e ->
      if not (astring_contains e "width") then
        Alcotest.failf "unexpected error %s" e
  | Ok _ -> Alcotest.fail "width conflict accepted"

(* --- printer round-trip --- *)

(* print-parse fixpoint: parse s, print it, parse that, print again — the
   two printed forms must be identical. Checked over every shipped script
   and over randomly generated scenario specs. *)
let print_parse_fixpoint name src =
  let ast1 = parse_ok src in
  let printed1 = Ast.script_to_string ast1 in
  match Parser.parse printed1 with
  | Error e -> Alcotest.failf "%s: printed form does not parse: %s\n%s" name e printed1
  | Ok ast2 ->
      let printed2 = Ast.script_to_string ast2 in
      if not (String.equal printed1 printed2) then
        Alcotest.failf "%s: print/parse not a fixpoint:\n%s\n-- vs --\n%s" name
          printed1 printed2

let test_printer_fixpoint_corpus () =
  List.iter
    (fun (name, src) -> print_parse_fixpoint name src)
    [
      ("figure5", Vw_scripts.tcp_ss_ca);
      ("figure6", Vw_scripts.rether_failure);
      ("quickstart", Vw_scripts.udp_drop_dup);
    ]

let test_printed_script_compiles () =
  let ast = parse_ok Vw_scripts.tcp_ss_ca in
  match Compile.parse_and_compile (Ast.script_to_string ast) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "printed figure 5 does not compile: %s" e

let test_fractional_duration () =
  let script =
    parse_ok
      {|
NODE_TABLE
a 02:00:00:00:00:01 10.0.0.1
END
SCENARIO frac 1.5s
(TRUE) >> STOP;
END
|}
  in
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "1.5s parses" (Some 1.5) script.scenario.inactivity_timeout

(* --- table codec --- *)

let test_codec_roundtrip_figure5 () =
  let t = compile_ok Vw_scripts.tcp_ss_ca in
  match Tables_codec.of_bytes (Tables_codec.to_bytes t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      check Alcotest.string "name" t.Tables.scenario_name t'.Tables.scenario_name;
      check Alcotest.int "filters" (Array.length t.Tables.filters)
        (Array.length t'.Tables.filters);
      check Alcotest.int "counters" (Array.length t.Tables.counters)
        (Array.length t'.Tables.counters);
      check Alcotest.int "terms" (Array.length t.Tables.terms)
        (Array.length t'.Tables.terms);
      check Alcotest.int "actions" (Array.length t.Tables.actions)
        (Array.length t'.Tables.actions);
      (* deep equality via the pretty-printer *)
      let render t = Format.asprintf "%a" Tables.pp t in
      check Alcotest.string "identical rendering" (render t) (render t')

let test_codec_roundtrip_figure6 () =
  let t = compile_ok Vw_scripts.rether_failure in
  match Tables_codec.of_bytes (Tables_codec.to_bytes t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      let render t = Format.asprintf "%a" Tables.pp t in
      check Alcotest.string "identical rendering" (render t) (render t')

let test_codec_rejects_garbage () =
  (match Tables_codec.of_bytes (Bytes.of_string "nonsense") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  let t = compile_ok Vw_scripts.rether_failure in
  let b = Tables_codec.to_bytes t in
  let truncated = Bytes.sub b 0 (Bytes.length b / 2) in
  match Tables_codec.of_bytes truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated tables accepted"

(* A literal must be exactly its tuple's [t_len] bytes, as the compiler
   always makes it: the classification index keys on [t_len] bytes while
   matching compares the pattern's own length, so a misfit decoded from
   the wire would make the engine disagree with the linear reference. *)
let test_codec_rejects_misfit_literal () =
  let decode len =
    let tu =
      {
        Tables.t_offset = 34;
        t_len = 2;
        t_mask = None;
        t_pat = Tables.Bytes_pattern (Bytes.make len '\x13');
      }
    in
    Tables_codec.of_bytes
      (Tables_codec.to_bytes
         {
           Tables.scenario_name = "misfit";
           inactivity_timeout = None;
           vars = [||];
           filters = [| { Tables.fid = 0; fname = "f"; f_tuples = [ tu ] } |];
           nodes = [||];
           counters = [||];
           terms = [||];
           conds = [||];
           actions = [||];
           rule_of_cond = [||];
         })
  in
  check Alcotest.bool "2-byte literal decodes" true (Result.is_ok (decode 2));
  List.iter
    (fun len ->
      check Alcotest.bool
        (Printf.sprintf "%d-byte literal rejected" len)
        true
        (Result.is_error (decode len)))
    [ 0; 3; 9 ]

(* --- the compile cache --- *)

let test_cache_hit_is_fresh_compile () =
  Compile_cache.reset ();
  let src = Vw_scripts.tcp_ss_ca in
  let fresh = compile_ok src in
  let first =
    match Compile_cache.parse_and_compile src with
    | Ok t -> t
    | Error e -> Alcotest.failf "cache miss failed to compile: %s" e
  in
  check Alcotest.bool "miss equals a fresh compile" true (fresh = first);
  let second =
    match Compile_cache.parse_and_compile src with
    | Ok t -> t
    | Error e -> Alcotest.failf "cache hit failed: %s" e
  in
  check Alcotest.bool "hit returns the cached tables" true (first == second);
  let s = Compile_cache.stats () in
  check Alcotest.int "one miss" 1 s.Compile_cache.misses;
  check Alcotest.int "one hit" 1 s.Compile_cache.hits;
  check (Alcotest.float 1e-9) "hit rate 0.5" 0.5 (Compile_cache.hit_rate ());
  Compile_cache.reset ()

let test_cache_distinct_scripts_distinct_entries () =
  Compile_cache.reset ();
  let a =
    match Compile_cache.parse_and_compile Vw_scripts.tcp_ss_ca with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let b =
    match Compile_cache.parse_and_compile Vw_scripts.rether_failure with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "different scripts, different tables" false (a = b);
  let s = Compile_cache.stats () in
  check Alcotest.int "two misses" 2 s.Compile_cache.misses;
  check Alcotest.int "no hits" 0 s.Compile_cache.hits;
  Compile_cache.reset ()

let test_cache_caches_errors () =
  Compile_cache.reset ();
  let bad = "FILTER_TABLE\nbroken ((((\nEND\n" in
  let e1 =
    match Compile_cache.parse_and_compile bad with
    | Error e -> e
    | Ok _ -> Alcotest.fail "broken script accepted"
  in
  let e2 =
    match Compile_cache.parse_and_compile bad with
    | Error e -> e
    | Ok _ -> Alcotest.fail "broken script accepted on replay"
  in
  check Alcotest.string "same error text" e1 e2;
  let s = Compile_cache.stats () in
  check Alcotest.int "error cached: one miss" 1 s.Compile_cache.misses;
  check Alcotest.int "error cached: one hit" 1 s.Compile_cache.hits;
  Compile_cache.reset ()

let prop_wire_i64_roundtrip =
  QCheck.Test.make ~name:"wire i64 roundtrip (incl. negatives)" ~count:500
    QCheck.(frequency [ (5, int); (1, oneofl [ min_int; max_int; -1; 0; 1 ]) ])
    (fun v ->
      let w = Wire.W.create () in
      Wire.W.i64 w v;
      Wire.R.i64 (Wire.R.of_bytes (Wire.W.contents w)) = v)

let prop_wire_bytes_roundtrip =
  QCheck.Test.make ~name:"wire bytes roundtrip" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      let w = Wire.W.create () in
      Wire.W.string w s;
      Wire.R.string (Wire.R.of_bytes (Wire.W.contents w)) = s)

(* Tables.compile stores each literal tuple of at most 7 bytes as an int
   key, pattern land mask, with its int mask (0xff past a short mask);
   8-byte literals and VARs keep their bytes in the pool. A bucketed
   filter's index tuple is not stored: its value is its bucket's key. Each
   filter's first keyed tuple left sits in the fid-indexed [fk_*] arrays,
   and the others in CSR order. *)
let test_compile_keyed_tuples () =
  let tu ?mask t_offset pat =
    let t_pat, t_len =
      match pat with
      | `Lit hex ->
          let b = Vw_util.Hexutil.of_hex hex in
          (Tables.Bytes_pattern b, Bytes.length b)
      | `Var (vid, len) -> (Tables.Var_pattern vid, len)
    in
    { Tables.t_offset; t_len; t_mask = Option.map Vw_util.Hexutil.of_hex mask; t_pat }
  in
  let filters =
    Array.mapi
      (fun fid f_tuples -> { Tables.fid; fname = Printf.sprintf "f%d" fid; f_tuples })
      [|
        [ tu 12 (`Lit "0800"); tu 14 (`Lit "45") ~mask:"f0" ];
        [ tu 10 (`Lit "01020304050607"); tu 16 (`Lit "ffeeddcc") ~mask:"0f" ];
        [ tu 14 (`Lit "0102030405060708") ~mask:"ff00"; tu 34 (`Var (0, 2)) ~mask:"00ff" ];
        [ tu 20 (`Lit "a5a5a5a5a5a5a5") ~mask:"ffffffffffff0f" ];
        [ tu 12 (`Lit "0806") ];
        [ tu 12 (`Lit "0800"); tu 12 (`Lit "0806"); tu 23 (`Lit "11") ];
      |]
  in
  let tables =
    {
      Tables.scenario_name = "keys";
      inactivity_timeout = None;
      vars = [| { Tables.vid = 0; vname = "V"; v_len = 2 } |];
      filters;
      nodes = [||];
      counters = [||];
      terms = [||];
      conds = [||];
      actions = [||];
      rule_of_cond = [||];
    }
  in
  let c = Tables.compile tables in
  let module C = Tables.Compiled in
  check Alcotest.(pair int int) "index window" (12, 2) (c.C.ci_offset, c.C.ci_len);
  (* a short literal's int mask and key *)
  let int_form (t : Tables.tuple) b =
    let mask_byte i =
      match t.Tables.t_mask with
      | Some m when i < Bytes.length m -> Char.code (Bytes.get m i)
      | _ -> 0xff
    in
    let key = ref 0 and mask = ref 0 in
    Bytes.iteri
      (fun i ch ->
        key := (!key * 256) + (Char.code ch land mask_byte i);
        mask := (!mask * 256) + mask_byte i)
      b;
    check Alcotest.int "key = pattern land mask" !key
      (Vw_util.Hexutil.to_int_be b ~pos:0 ~len:(Bytes.length b) land !mask);
    (!mask, !key)
  in
  let keyed = ref 0 in
  let rec take_first p = function
    | [] -> (None, [])
    | x :: rest when p x -> (Some x, rest)
    | x :: rest ->
        let found, rest = take_first p rest in
        (found, x :: rest)
  in
  Array.iteri
    (fun fid (f : Tables.filter_entry) ->
      let where = Printf.sprintf "f%d" fid in
      (* the index tuple: its value selects the bucket holding [fid] *)
      let index, rest =
        take_first
          (fun (t : Tables.tuple) ->
            t.Tables.t_offset = 12 && t.Tables.t_len = 2 && t.Tables.t_mask = None
            && match t.Tables.t_pat with Tables.Bytes_pattern _ -> true | _ -> false)
          f.Tables.f_tuples
      in
      (match index with
      | Some { Tables.t_pat = Tables.Bytes_pattern b; _ } ->
          let bucket =
            Vw_util.Int_tbl.find c.C.ci_buckets
              (Vw_util.Hexutil.to_int_be b ~pos:0 ~len:2)
          in
          check Alcotest.bool (where ^ " in its index tuple's bucket") true
            (Array.mem fid bucket)
      | _ ->
          check Alcotest.bool (where ^ " in the fallback") true
            (Array.mem fid c.C.ci_fallback));
      (* the first keyed tuple left: the fk arrays *)
      let key_tuple, csr =
        take_first
          (fun (t : Tables.tuple) ->
            match t.Tables.t_pat with
            | Tables.Bytes_pattern b -> Bytes.length b <= 7
            | Tables.Var_pattern _ -> false)
          rest
      in
      let int4 = Alcotest.(pair (pair int int) (pair int int)) in
      let fk =
        ((c.C.fk_pos.(fid), c.C.fk_len.(fid)), (c.C.fk_mask.(fid), c.C.fk_key.(fid)))
      in
      (match key_tuple with
      | Some ({ Tables.t_pat = Tables.Bytes_pattern b; _ } as t) ->
          incr keyed;
          let mask, key = int_form t b in
          check int4 (where ^ " key tuple")
            ((t.Tables.t_offset, Bytes.length b), (mask, key))
            fk
      | _ -> check int4 (where ^ " no key tuple") ((14, 0), (0, 0)) fk);
      (* every other tuple, in CSR order *)
      check Alcotest.int (where ^ " CSR tuples") (List.length csr)
        (c.C.f_start.(fid + 1) - c.C.f_start.(fid));
      List.iteri
        (fun k (t : Tables.tuple) ->
          let ti = c.C.f_start.(fid) + k in
          let where = Printf.sprintf "%s tuple %d" where k in
          check Alcotest.int (where ^ " offset") t.Tables.t_offset c.C.tu_offset.(ti);
          match t.Tables.t_pat with
          | Tables.Bytes_pattern b when Bytes.length b <= 7 ->
              incr keyed;
              check Alcotest.bool (where ^ " keyed") true (C.keyed c ti);
              let mask, key = int_form t b in
              check Alcotest.int (where ^ " mask") mask c.C.tu_mask.(ti);
              check Alcotest.int (where ^ " key = pattern land mask") key
                c.C.tu_pat.(ti)
          | Tables.Bytes_pattern b ->
              check Alcotest.bool (where ^ " not keyed") false (C.keyed c ti);
              check Alcotest.string (where ^ " pattern in pool")
                (Bytes.to_string b)
                (Bytes.sub_string c.C.pool c.C.tu_pat.(ti) (Bytes.length b))
          | Tables.Var_pattern vid ->
              check Alcotest.bool (where ^ " not keyed") false (C.keyed c ti);
              check Alcotest.int (where ^ " var id") (-(vid + 1)) c.C.tu_pat.(ti))
        csr)
    filters;
  check Alcotest.int "keyed tuples" 6 !keyed

let suite =
  [
    ( "fsl.lexer",
      [
        Alcotest.test_case "basics" `Quick test_lex_basics;
        Alcotest.test_case "mac and ip" `Quick test_lex_mac_ip;
        Alcotest.test_case "durations" `Quick test_lex_duration;
        Alcotest.test_case "comments" `Quick test_lex_comments;
        Alcotest.test_case "error position" `Quick test_lex_error_position;
      ] );
    ( "fsl.parser",
      [
        Alcotest.test_case "figure 5 parses" `Quick test_parse_figure5;
        Alcotest.test_case "figure 5 drop rule" `Quick test_parse_figure5_drop_rule;
        Alcotest.test_case "figure 6 parses" `Quick test_parse_figure6;
        Alcotest.test_case "tuple forms" `Quick test_parse_filter_tuple_forms;
        Alcotest.test_case "every action form" `Quick test_parse_all_actions;
        Alcotest.test_case "rejects malformed scripts" `Quick test_parse_errors;
        Alcotest.test_case "= and == both accepted" `Quick test_parse_equality_forms;
      ] );
    ( "fsl.compile",
      [
        Alcotest.test_case "figure 5 compiles" `Quick test_compile_figure5;
        Alcotest.test_case "figure 6 distribution" `Quick
          test_compile_figure6_distribution;
        Alcotest.test_case "bare hex patterns widen" `Quick test_compile_pattern_widths;
        Alcotest.test_case "static error cases" `Quick test_compile_error_cases;
        Alcotest.test_case "var width conflict" `Quick test_compile_var_width_conflict;
        Alcotest.test_case "short literals compile to int keys" `Quick
          test_compile_keyed_tuples;
      ] );
    ( "fsl.printer",
      [
        Alcotest.test_case "fixpoint over shipped scripts" `Quick
          test_printer_fixpoint_corpus;
        Alcotest.test_case "printed script compiles" `Quick
          test_printed_script_compiles;
        Alcotest.test_case "fractional durations" `Quick test_fractional_duration;
      ] );
    ( "fsl.compile_cache",
      [
        Alcotest.test_case "hit equals a fresh compile" `Quick
          test_cache_hit_is_fresh_compile;
        Alcotest.test_case "distinct scripts get distinct entries" `Quick
          test_cache_distinct_scripts_distinct_entries;
        Alcotest.test_case "errors are cached too" `Quick
          test_cache_caches_errors;
      ] );
    ( "fsl.codec",
      [
        Alcotest.test_case "figure 5 roundtrip" `Quick test_codec_roundtrip_figure5;
        Alcotest.test_case "figure 6 roundtrip" `Quick test_codec_roundtrip_figure6;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "rejects misfit literals" `Quick
          test_codec_rejects_misfit_literal;
        qtest prop_wire_i64_roundtrip;
        qtest prop_wire_bytes_roundtrip;
      ] );
  ]
