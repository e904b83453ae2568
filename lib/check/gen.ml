module Ast = Vw_fsl.Ast
module Prng = Vw_util.Prng

type send = { at_ms : int; src : int; dst : int; kind : int; len : int }

type case = {
  seed : int;
  script : Ast.script;
  kinds : (int * int) array;
  sends : send list;
  max_ms : int;
}

let pos = { Ast.line = 0; col = 0 }
let hex2 v = Printf.sprintf "0x%02x" (v land 0xff)
let hex4 v = Printf.sprintf "0x%04x" (v land 0xffff)

(* Deterministic payload so filters can (sometimes) match payload bytes. *)
let payload ~kind ~len =
  Bytes.init len (fun j -> Char.chr (((kind * 31) + (j * 7) + 13) land 0xff))

let payload_byte0 kind = Char.code (Bytes.get (payload ~kind ~len:1) 0)

let tuple ?mask ~offset ~length pat =
  { Ast.offset; length; mask; pat; tuple_pos = pos }

let pick rng l = List.nth l (Prng.int rng (List.length l))

(* UDP-over-IPv4 frame layout the filters are written against: Ethernet
   header 14 B (ethertype at 12), IPv4 20 B, UDP source port at 34,
   destination port at 36, payload from 42. *)
let off_ethertype = 12
let off_sport = 34
let off_dport = 36
let off_payload = 42

let gen_filters rng ~kinds ~has_var =
  let kind_filters =
    Array.to_list
      (Array.mapi
         (fun k (sp, dp) ->
           let tuples = ref [ tuple ~offset:off_dport ~length:2 (Ast.Lit (hex4 dp)) ] in
           if Prng.bool rng 0.5 then
             tuples := !tuples @ [ tuple ~offset:off_sport ~length:2 (Ast.Lit (hex4 sp)) ];
           if Prng.bool rng 0.3 then begin
             (* payload byte: usually the value this kind actually carries *)
             let v =
               if Prng.bool rng 0.7 then payload_byte0 k else Prng.byte rng
             in
             tuples := !tuples @ [ tuple ~offset:off_payload ~length:1 (Ast.Lit (hex2 v)) ]
           end;
           if Prng.bool rng 0.2 then
             tuples :=
               !tuples
               @ [ tuple ~mask:"0xff00" ~offset:off_ethertype ~length:2 (Ast.Lit "0x0800") ];
           {
             Ast.filter_name = Printf.sprintf "pkt%d" k;
             tuples = !tuples;
             filter_pos = pos;
           })
         kinds)
  in
  let _, dp0 = kinds.(0) in
  let extras = ref [] in
  if has_var then
    (* a VAR is only legal if some filter uses it *)
    extras :=
      !extras
      @ [
          {
            Ast.filter_name = "pktv";
            tuples =
              [
                tuple ~offset:off_dport ~length:2 (Ast.Lit (hex4 dp0));
                tuple ~offset:off_sport ~length:2 (Ast.Var "V0");
              ];
            filter_pos = pos;
          };
        ];
  if Prng.bool rng 0.4 then
    (* masked-only tuple: not index-keyable, lands in the fallback scan but
       still matches this run's traffic — exercises the bucket ∪ fallback
       merge against the linear reference *)
    extras :=
      !extras
      @ [
          {
            Ast.filter_name = "pktm";
            tuples =
              [ tuple ~mask:"0xff00" ~offset:off_dport ~length:2 (Ast.Lit (hex4 (dp0 land 0xff00))) ];
            filter_pos = pos;
          };
        ];
  if Prng.bool rng 0.3 then
    (* a keyed filter no send matches: a dead index bucket *)
    extras :=
      !extras
      @ [
          {
            Ast.filter_name = "pktx";
            tuples = [ tuple ~offset:off_dport ~length:2 (Ast.Lit (hex4 (7900 + Prng.int rng 64))) ];
            filter_pos = pos;
          };
        ];
  kind_filters @ !extras

let gen_counters rng ~filters ~node_names =
  let n_counters = 1 + Prng.int rng 4 in
  let filter_names = List.map (fun f -> f.Ast.filter_name) filters in
  let rand_pair () =
    let n = List.length node_names in
    let a = Prng.int rng n in
    let b = (a + 1 + Prng.int rng (n - 1)) mod n in
    (List.nth node_names a, List.nth node_names b)
  in
  List.init n_counters (fun i ->
      let def =
        if i = 0 then
          (* always one event counter over kind-0 traffic so the cascade has
             something to chew on *)
          Ast.Event_counter
            {
              pkt = List.hd filter_names;
              from_node = List.nth node_names 0;
              to_node = List.nth node_names 1;
              dir = Ast.Recv;
            }
        else if Prng.bool rng 0.7 then begin
          let from_node, to_node = rand_pair () in
          Ast.Event_counter
            {
              pkt = pick rng filter_names;
              from_node;
              to_node;
              dir = (if Prng.bool rng 0.5 then Ast.Send else Ast.Recv);
            }
        end
        else Ast.Local_counter { at_node = pick rng node_names }
      in
      {
        Ast.counter_name = Printf.sprintf "C%d" i;
        counter_def = def;
        counter_pos = pos;
      })

let gen_term rng ~counter_names =
  let ops = [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
  let left = pick rng counter_names in
  let right =
    if List.length counter_names > 1 && Prng.bool rng 0.2 then
      let other =
        pick rng (List.filter (fun c -> c <> left) counter_names)
      in
      Ast.Counter_ref other
    else Ast.Const (Prng.int rng 6)
  in
  Ast.Term { t_left = left; t_op = pick rng ops; t_right = right }

let rec gen_cond rng ~counter_names depth =
  let leaf () =
    if Prng.bool rng 0.1 then Ast.True else gen_term rng ~counter_names
  in
  if depth = 0 then leaf ()
  else
    match Prng.int rng 10 with
    | 0 | 1 ->
        Ast.And
          ( gen_cond rng ~counter_names (depth - 1),
            gen_cond rng ~counter_names (depth - 1) )
    | 2 | 3 ->
        Ast.Or
          ( gen_cond rng ~counter_names (depth - 1),
            gen_cond rng ~counter_names (depth - 1) )
    | 4 -> Ast.Not (gen_cond rng ~counter_names (depth - 1))
    | _ -> leaf ()

let gen_fspec rng ~filters ~kind_count ~node_names =
  let filter_names = List.map (fun f -> f.Ast.filter_name) filters in
  let f_pkt =
    (* bias toward filters over real traffic *)
    if Prng.bool rng 0.8 then List.nth filter_names (Prng.int rng kind_count)
    else pick rng filter_names
  in
  let n = List.length node_names in
  let a = Prng.int rng n in
  let b = (a + 1 + Prng.int rng (n - 1)) mod n in
  {
    Ast.f_pkt;
    f_from = List.nth node_names a;
    f_to = List.nth node_names b;
    f_dir = (if Prng.bool rng 0.5 then Ast.Send else Ast.Recv);
  }

let gen_action rng ~counter_names ~node_names ~filters ~kind_count ~has_var =
  let cnt () = pick rng counter_names in
  let fspec () = gen_fspec rng ~filters ~kind_count ~node_names in
  match Prng.int rng 100 with
  | n when n < 12 -> Ast.Incr_cntr (cnt (), 1 + Prng.int rng 3)
  | n when n < 18 -> Ast.Decr_cntr (cnt (), 1 + Prng.int rng 2)
  | n when n < 24 ->
      Ast.Assign_cntr
        (cnt (), if Prng.bool rng 0.5 then Some (Prng.int rng 6) else None)
  | n when n < 28 -> Ast.Reset_cntr (cnt ())
  | n when n < 32 -> Ast.Enable_cntr (cnt ())
  | n when n < 36 -> Ast.Disable_cntr (cnt ())
  | n when n < 39 -> Ast.Set_curtime (cnt ())
  | n when n < 42 -> Ast.Elapsed_time (cnt ())
  | n when n < 54 -> Ast.Drop (fspec ())
  | n when n < 62 ->
      Ast.Delay (fspec (), float_of_int (1 + Prng.int rng 50) /. 1000.)
  | n when n < 70 ->
      let count = 2 + Prng.int rng 3 in
      (* Fisher-Yates over 1..count *)
      let order = Array.init count (fun i -> i + 1) in
      for i = count - 1 downto 1 do
        let j = Prng.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      Ast.Reorder (fspec (), count, Array.to_list order)
  | n when n < 78 -> Ast.Dup (fspec ())
  | n when n < 86 ->
      let pat =
        if Prng.bool rng 0.5 then Ast.Random_bytes
        else
          Ast.Set_bytes
            {
              m_offset = 14 + Prng.int rng 40;
              m_bytes = hex2 (Prng.byte rng);
            }
      in
      Ast.Modify (fspec (), pat)
  | n when n < 90 -> Ast.Fail (pick rng node_names)
  | n when n < 93 -> Ast.Stop
  | n when n < 96 -> Ast.Flag_error
  | _ ->
      if has_var then Ast.Bind_var ("V0", hex4 (6000 + Prng.int rng 4))
      else Ast.Incr_cntr (cnt (), 1)

let generate ~seed =
  let seed = seed land max_int in
  let rng = Prng.create ~seed in
  let n_nodes = 2 + Prng.int rng 3 in
  let node_names = List.init n_nodes (Printf.sprintf "n%d") in
  let nodes =
    List.mapi
      (fun i name ->
        {
          Ast.node_name = name;
          node_mac = Printf.sprintf "02:00:00:00:00:%02x" (i + 1);
          node_ip = Printf.sprintf "10.0.0.%d" (i + 1);
          node_pos = pos;
        })
      node_names
  in
  let n_kinds = 1 + Prng.int rng 3 in
  let dport_base = 7000 + Prng.int rng 100 in
  let kinds = Array.init n_kinds (fun k -> (6000 + k, dport_base + k)) in
  let has_var = Prng.bool rng 0.3 in
  let vars = if has_var then [ "V0" ] else [] in
  let filters = gen_filters rng ~kinds ~has_var in
  let counters = gen_counters rng ~filters ~node_names in
  let counter_names = List.map (fun c -> c.Ast.counter_name) counters in
  let kind_count = n_kinds in
  let enable_all =
    {
      Ast.condition = Ast.True;
      actions = List.map (fun c -> Ast.Enable_cntr c) counter_names;
      rule_pos = pos;
    }
  in
  let n_rules = 1 + Prng.int rng 5 in
  let rules =
    enable_all
    :: List.init n_rules (fun _ ->
           let condition = gen_cond rng ~counter_names 2 in
           let n_actions = 1 + Prng.int rng 3 in
           let actions =
             List.init n_actions (fun _ ->
                 gen_action rng ~counter_names ~node_names ~filters
                   ~kind_count ~has_var)
           in
           { Ast.condition; actions; rule_pos = pos })
  in
  let inactivity_timeout = if Prng.bool rng 0.15 then Some 0.25 else None in
  let n_sends = 3 + Prng.int rng 23 in
  let sends =
    List.init n_sends (fun _ ->
        let src = Prng.int rng n_nodes in
        let dst = (src + 1 + Prng.int rng (n_nodes - 1)) mod n_nodes in
        {
          at_ms = Prng.int rng 401;
          src;
          dst;
          kind = Prng.int rng n_kinds;
          len = Prng.int rng 33;
        })
  in
  let sends = List.stable_sort compare sends in
  let max_ms = 800 in
  (* Optional CONFORM section: expectations derived from the schedule just
     generated (every sent packet should be seen at its destination within
     the run), so fuzz cases carry assertion density for free. The windows
     are generous — a failing EXPECT is interesting only through the
     conformance/coverage consistency oracle, not as a verdict. *)
  let conform =
    if not (Prng.bool rng 0.5) then []
    else begin
      let send_arr = Array.of_list sends in
      let n_expects = 1 + Prng.int rng (min 4 (Array.length send_arr)) in
      let expects =
        List.init n_expects (fun _ ->
            let s = send_arr.(Prng.int rng (Array.length send_arr)) in
            let x_at =
              if Prng.bool rng 0.3 then
                Some (float_of_int s.at_ms /. 1000.)
              else None
            in
            Ast.Expect
              {
                x_target =
                  Ast.Expect_packet
                    {
                      Ast.f_pkt = Printf.sprintf "pkt%d" s.kind;
                      f_from = Printf.sprintf "n%d" s.src;
                      f_to = Printf.sprintf "n%d" s.dst;
                      f_dir = (if Prng.bool rng 0.8 then Ast.Recv else Ast.Send);
                    };
                x_at;
                x_within = Some (float_of_int max_ms /. 1000.);
                x_pos = pos;
              })
      in
      let injects =
        if not (Prng.bool rng 0.4) then []
        else
          let n = 1 + Prng.int rng 2 in
          List.init n (fun _ ->
              let a = Prng.int rng n_nodes in
              let b = (a + 1 + Prng.int rng (n_nodes - 1)) mod n_nodes in
              Ast.Inject
                {
                  i_pkt = Printf.sprintf "pkt%d" (Prng.int rng n_kinds);
                  i_from = Printf.sprintf "n%d" a;
                  i_to = Printf.sprintf "n%d" b;
                  i_at = float_of_int (Prng.int rng 401) /. 1000.;
                  i_pos = pos;
                })
      in
      let state =
        if Prng.bool rng 0.3 then
          [
            Ast.Expect
              {
                x_target =
                  Ast.Expect_state
                    { s_counter = "C0"; s_op = Ast.Ge; s_value = 0 };
                x_at = None;
                x_within = Some (float_of_int max_ms /. 1000.);
                x_pos = pos;
              };
          ]
        else []
      in
      injects @ expects @ state
    end
  in
  let script =
    {
      Ast.vars;
      filters;
      nodes;
      scenario =
        {
          Ast.scenario_name = Printf.sprintf "fz%d" (seed land 0xffffff);
          inactivity_timeout;
          counters;
          rules;
        };
      conform;
    }
  in
  { seed; script; kinds; sends; max_ms }

let size c =
  let rules = List.length c.script.Ast.scenario.rules in
  let actions =
    List.fold_left
      (fun acc r -> acc + List.length r.Ast.actions)
      0 c.script.Ast.scenario.rules
  in
  rules + actions
  + List.length c.script.Ast.filters
  + List.length c.script.Ast.scenario.counters
  + List.length c.script.Ast.nodes
  + List.length c.sends

type origin = { og_oracle : string; og_run_seed : int; og_case_index : int }

let to_fsl ?origin c =
  let b = Buffer.create 1024 in
  Printf.bprintf b "# vw-fuzz: seed %d max_ms %d\n" c.seed c.max_ms;
  (match origin with
  | Some o ->
      Printf.bprintf b "# vw-fuzz: oracle %s\n" o.og_oracle;
      Printf.bprintf b "# vw-fuzz: run_seed %d case_index %d\n" o.og_run_seed
        o.og_case_index
  | None -> ());
  Array.iteri
    (fun k (sp, dp) -> Printf.bprintf b "# vw-fuzz: kind %d sport %d dport %d\n" k sp dp)
    c.kinds;
  List.iter
    (fun s ->
      Printf.bprintf b "# vw-fuzz: send %d %d %d %d %d\n" s.at_ms s.src s.dst
        s.kind s.len)
    c.sends;
  Buffer.add_string b (Ast.script_to_string c.script);
  Buffer.contents b

(* every [# vw-fuzz:] header line, split into words *)
let fuzz_directives text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         match String.index_opt line ':' with
         | Some i when String.length line > 9 && String.sub line 0 9 = "# vw-fuzz"
           ->
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             Some
               ( line,
                 String.split_on_char ' ' rest
                 |> List.filter (fun w -> w <> "") )
         | _ -> None)

let origin_of_fsl text =
  let oracle = ref None and run_seed = ref None and case_index = ref None in
  List.iter
    (fun (_, words) ->
      match words with
      | [ "oracle"; name ] -> oracle := Some name
      | [ "run_seed"; rs; "case_index"; ci ] ->
          run_seed := int_of_string_opt rs;
          case_index := int_of_string_opt ci
      | _ -> ())
    (fuzz_directives text);
  match (!oracle, !run_seed, !case_index) with
  | Some og_oracle, Some og_run_seed, Some og_case_index ->
      Some { og_oracle; og_run_seed; og_case_index }
  | _ -> None

let of_fsl text =
  let seed = ref 0
  and max_ms = ref 800
  and kinds = ref []
  and sends = ref [] in
  let bad = ref None in
  List.iter
    (fun (line, words) ->
      match words with
      | [ "seed"; s; "max_ms"; m ] -> (
          match (int_of_string_opt s, int_of_string_opt m) with
          | Some s, Some m ->
              seed := s;
              max_ms := m
          | _ -> bad := Some line)
      | [ "kind"; k; "sport"; sp; "dport"; dp ] -> (
          match
            (int_of_string_opt k, int_of_string_opt sp, int_of_string_opt dp)
          with
          | Some k, Some sp, Some dp -> kinds := (k, (sp, dp)) :: !kinds
          | _ -> bad := Some line)
      | [ "send"; a; s; d; k; l ] -> (
          match List.map int_of_string_opt [ a; s; d; k; l ] with
          | [ Some at_ms; Some src; Some dst; Some kind; Some len ] ->
              sends := { at_ms; src; dst; kind; len } :: !sends
          | _ -> bad := Some line)
      (* origin metadata (see [origin_of_fsl]) — tolerated, not required,
         so pre-origin reproducers and hand-trimmed files still replay *)
      | [ "oracle"; _ ] | [ "run_seed"; _; "case_index"; _ ] -> ()
      | _ -> bad := Some line)
    (fuzz_directives text);
  match !bad with
  | Some line -> Error (Printf.sprintf "bad vw-fuzz directive: %s" line)
  | None -> (
      match Vw_fsl.Parser.parse text with
      | Error e -> Error e
      | Ok script ->
          let kinds =
            List.sort compare !kinds |> List.map snd |> Array.of_list
          in
          if Array.length kinds = 0 then
            Error "no '# vw-fuzz: kind' directives — not a fuzz case"
          else
            Ok
              {
                seed = !seed;
                script;
                kinds;
                sends = List.rev !sends;
                max_ms = !max_ms;
              })
