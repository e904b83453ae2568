type pred = Trace.entry -> bool

let where ?node ?dir ?after ?before f : pred =
 fun (e : Trace.entry) ->
  (match node with Some n -> String.equal n e.node | None -> true)
  && (match dir with Some d -> d = e.dir | None -> true)
  && (match after with Some lo -> e.time > lo | None -> true)
  && (match before with Some hi -> e.time <= hi | None -> true)
  && f (Vw_net.Frame_view.of_frame e.frame)

let tcp_where f (view : Vw_net.Frame_view.t) =
  match view.content with
  | Vw_net.Frame_view.Ip (_, Vw_net.Frame_view.Tcp_view seg) -> f seg
  | _ -> false

let udp_where f (view : Vw_net.Frame_view.t) =
  match view.content with
  | Vw_net.Frame_view.Ip (_, Vw_net.Frame_view.Udp_view dgram) -> f dgram
  | _ -> false

let rether_opcode opcode (view : Vw_net.Frame_view.t) =
  match view.content with
  | Vw_net.Frame_view.Rether (op, _) -> op = opcode
  | _ -> false

let count trace p = List.length (Trace.filter trace p)
let exists trace p = List.exists p (Trace.entries trace)
let first trace p = List.find_opt p (Trace.entries trace)

let last trace p =
  List.fold_left
    (fun acc e -> if p e then Some e else acc)
    None (Trace.entries trace)

let in_order trace preds =
  let rec go entries preds =
    match preds with
    | [] -> true
    | p :: rest -> (
        match entries with
        | [] -> false
        | e :: entries' -> if p e then go entries' rest else go entries' preds)
  in
  go (Trace.entries trace) preds

let never_after trace ~cause ~banned =
  let rec go entries seen_cause =
    match entries with
    | [] -> true
    | e :: rest ->
        let seen_cause = seen_cause || cause e in
        if seen_cause && banned e then false else go rest seen_cause
  in
  go (Trace.entries trace) false

let within trace ~cause ~effect_ ~window =
  let entries = Trace.entries trace in
  let rec effect_by deadline = function
    | [] -> false
    | (e : Trace.entry) :: rest ->
        if e.time > deadline then false
        else if effect_ e then true
        else effect_by deadline rest
  in
  let rec go = function
    | [] -> true
    | (e : Trace.entry) :: rest ->
        if cause e then
          effect_by Vw_sim.Simtime.(e.time + window) rest && go rest
        else go rest
  in
  go entries

let max_gap trace p =
  let times =
    List.filter_map
      (fun (e : Trace.entry) -> if p e then Some e.time else None)
      (Trace.entries trace)
  in
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (max acc Vw_sim.Simtime.(b - a)) rest
    | _ -> acc
  in
  match times with _ :: _ :: _ -> Some (go 0 times) | _ -> None
