open Ubpa_util
module Trace = Ubpa_sim.Trace

type violation = {
  invariant : string;
  round : int;
  node : Node_id.t option;
  detail : string;
}

let pp_violation ppf v =
  let pp_node ppf = function
    | None -> ()
    | Some id -> Fmt.pf ppf " at %a" Node_id.pp id
  in
  Fmt.pf ppf "[%s] violated in round %d%a: %s" v.invariant v.round pp_node
    v.node v.detail

type 'o node_obs = {
  node : Node_id.t;
  joined_at : int;
  halted_at : int option;
  down : bool;
  output : 'o option;
}

(* A live instance: fresh closures (hence fresh state) per [create]. *)
type 'o inst = {
  i_name : string;
  i_round :
    (round:int -> 'o node_obs list -> (Node_id.t option * string) option)
    option;
  i_event : (Trace.event -> (Node_id.t option * string) option) option;
}

type 'o invariant = unit -> 'o inst

type 'o t = {
  excused : Node_id.Set.t;
  mutable insts : 'o inst list;
  mutable violations : violation list; (* reversed *)
}

let create ?(excused = Node_id.Set.empty) invariants =
  { excused; insts = List.map (fun mk -> mk ()) invariants; violations = [] }

let fire t inst ~round (node, detail) =
  t.violations <-
    { invariant = inst.i_name; round; node; detail } :: t.violations

let observe t ~round obs =
  if t.insts <> [] then begin
    let obs =
      if Node_id.Set.is_empty t.excused then obs
      else List.filter (fun o -> not (Node_id.Set.mem o.node t.excused)) obs
    in
    t.insts <-
      List.filter
        (fun inst ->
          match inst.i_round with
          | None -> true
          | Some check -> (
              match check ~round obs with
              | None -> true
              | Some v ->
                  fire t inst ~round v;
                  false))
        t.insts
  end

let observe_event t (e : Trace.event) =
  let excused =
    match e.node with Some n -> Node_id.Set.mem n t.excused | None -> false
  in
  if (not excused) && t.insts <> [] then
    t.insts <-
      List.filter
        (fun inst ->
          match inst.i_event with
          | None -> true
          | Some check -> (
              match check e with
              | None -> true
              | Some v ->
                  fire t inst ~round:e.round v;
                  false))
        t.insts

let needs_trace t = List.exists (fun inst -> Option.is_some inst.i_event) t.insts

let violations t = List.rev t.violations
let first_violation t = match violations t with [] -> None | v :: _ -> Some v
let all_green t = t.violations = []

(* {2 Invariants} *)

let stateless ~name ?on_round ?on_event () () =
  { i_name = name; i_round = on_round; i_event = on_event }

let custom ~name ?on_round ?on_event () =
  stateless ~name ?on_round ?on_event ()

let decided obs =
  List.filter_map
    (fun o ->
      match (o.halted_at, o.output) with
      | Some _, Some v -> Some (o.node, v)
      | _ -> None)
    obs

let agreement ?(name = "agreement")
    ?(pp = fun ppf _ -> Fmt.string ppf "<output>") ~equal () =
  stateless ~name
    ~on_round:(fun ~round:_ obs ->
      match decided obs with
      | [] | [ _ ] -> None
      | (n0, v0) :: rest ->
          List.find_map
            (fun (n, v) ->
              if equal v v0 then None
              else
                Some
                  ( Some n,
                    Fmt.str "decided %a, but %a decided %a" pp v Node_id.pp
                      n0 pp v0 ))
            rest)
    ()

let validity ?(name = "validity") ~ok () =
  stateless ~name
    ~on_round:(fun ~round:_ obs ->
      List.find_map
        (fun (n, v) ->
          if ok n v then None else Some (Some n, "decision violates validity"))
        (decided obs))
    ()

let laggards ~deadline ~round ~ok obs =
  if round < deadline then None
  else
    List.find_map
      (fun o ->
        if o.down || ok o then None
        else Some (Some o.node, Fmt.str "no progress by round %d" deadline))
      obs

let termination_by ~round:deadline () =
  stateless ~name:"termination"
    ~on_round:(fun ~round obs ->
      laggards ~deadline ~round ~ok:(fun o -> o.halted_at <> None) obs)
    ()

let progress_by ~name ~round:deadline ~ok () =
  stateless ~name ~on_round:(fun ~round obs -> laggards ~deadline ~round ~ok obs) ()

let unforgeable ?(name = "rb-unforgeability") ~keys ~forged
    ?(pp_key = fun ppf _ -> Fmt.string ppf "<entry>") () =
  stateless ~name
    ~on_round:(fun ~round:_ obs ->
      List.find_map
        (fun o ->
          match o.output with
          | None -> None
          | Some out ->
              List.find_map
                (fun k ->
                  if forged k then
                    Some (Some o.node, Fmt.str "accepted forged %a" pp_key k)
                  else None)
                (keys out))
        obs)
    ()

let accept_relay ?(name = "rb-relay") ~keys () () =
  (* first observation round of each key, across all non-excused nodes *)
  let first_seen = Hashtbl.create 16 in
  {
    i_name = name;
    i_event = None;
    i_round =
      Some
        (fun ~round obs ->
          let key_lists =
            List.map
              (fun o ->
                (o, match o.output with None -> [] | Some out -> keys out))
              obs
          in
          List.iter
            (fun (_, ks) ->
              List.iter
                (fun k ->
                  if not (Hashtbl.mem first_seen k) then
                    Hashtbl.add first_seen k round)
                ks)
            key_lists;
          List.find_map
            (fun (o, ks) ->
              if o.down then None
              else
                Hashtbl.fold
                  (fun k r0 acc ->
                    match acc with
                    | Some _ -> acc
                    | None ->
                        if r0 < round && o.joined_at <= r0 && not (List.mem k ks)
                        then
                          Some
                            ( Some o.node,
                              Fmt.str
                                "an entry accepted elsewhere in round %d has \
                                 not been relayed here by round %d"
                                r0 round )
                        else None)
                  first_seen None)
            key_lists);
  }

let no_send_after_halt () () =
  let halted = Hashtbl.create 16 in
  {
    i_name = "no-send-after-halt";
    i_round = None;
    i_event =
      Some
        (fun (e : Trace.event) ->
          match (e.kind, e.node) with
          | Trace.Halt, Some n ->
              Hashtbl.replace halted n ();
              None
          | Trace.Send, Some n when Hashtbl.mem halted n ->
              Some (Some n, "sent a message after halting")
          | _ -> None);
  }
