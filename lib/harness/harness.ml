open Ubpa_util
open Ubpa_sim

let make_ids ~seed n = Node_id.scatter ~seed n
let max_f n = (n - 1) / 3

let split_population ~seed ~n_correct ~n_byz =
  let ids = make_ids ~seed (n_correct + n_byz) in
  let correct = List.filteri (fun i _ -> i < n_correct) ids in
  let byz = List.filteri (fun i _ -> i >= n_correct) ids in
  (correct, byz)

module Reference = struct
  type t = {
    wire : Ubpa_obs.Wire.t;
    mutable rounds : int;
    mutable delivered : int;
    mutable divergence : string option;
  }

  let create () =
    {
      wire = Ubpa_obs.Wire.create ();
      rounds = 0;
      delivered = 0;
      divergence = None;
    }

  let wire r = r.wire
  let rounds r = r.rounds
  let delivered r = r.delivered
  let divergence r = r.divergence
  let agrees r = r.divergence = None
end

module Make (P : Protocol.S) = struct
  module Net = Network.Make (P)

  type finished =
    [ `All_halted
    | `Max_rounds_reached of Node_id.t list
    | `No_correct_nodes
    | `Stopped ]

  type outcome = {
    finished : finished;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * P.output) list;
    reports : Net.node_report list;
    metrics : Metrics.t;
    net : Net.t;
  }

  let create ?rushing ?seed ?faults ?trace ?classify ?stimulus ~correct
      ~byzantine () =
    Net.create ?rushing ?seed ?faults ?trace ?classify ?stimulus ~correct
      ~byzantine ()

  let collect net ~finished =
    let metrics = Net.metrics net in
    {
      finished;
      rounds = Net.round net;
      delivered_msgs = Metrics.delivered metrics;
      outputs = Net.outputs net;
      reports = Net.reports net;
      metrics;
      net;
    }

  let observations net =
    List.map
      (fun (r : Net.node_report) ->
        {
          Ubpa_monitor.node = r.id;
          joined_at = r.joined_at;
          halted_at = r.halted_at;
          down = r.down_since <> None;
          output = r.last_output;
        })
      (Net.reports net)

  let observe monitor net =
    Ubpa_monitor.observe monitor ~round:(Net.round net) (observations net)

  (* Re-route the round the network just executed through the reference
     core and compare: delivered count and every present node's routed
     inbox, in order. Wire counters are charged per delivery, the way the
     reference core reports them, for [Wire.equal] against the
     network's own once-per-broadcast accounting. *)
  let check_reference ?classify (r : Reference.t) net =
    match Net.routed net with
    | None -> ()
    | Some (envelopes, view) ->
        let round = Net.round net in
        let kind_of =
          match classify with Some f -> f | None -> fun _ -> "msg"
        in
        let on_deliver ~recipient ~src m =
          Ubpa_obs.Wire.record r.wire ~round ~sender:src ~recipient
            ~kind:(kind_of m) ~bits:(P.encoded_bits m)
        in
        let present = Node_id.Set.of_list (Delivery.view_present view) in
        let inboxes, count =
          Delivery.route_reference ~on_deliver ~equal:P.equal_message ~present
            ~envelopes ()
        in
        r.rounds <- r.rounds + 1;
        r.delivered <- r.delivered + count;
        let same (s1, m1) (s2, m2) =
          Node_id.equal s1 s2 && P.compare_message m1 m2 = 0
        in
        let arena_count = Delivery.view_delivered view in
        if r.divergence = None then
          r.divergence <-
            (if count <> arena_count then
               Some
                 (Printf.sprintf "round %d: arena delivered %d, reference %d"
                    round arena_count count)
             else
               Node_id.Map.fold
                 (fun id inbox acc ->
                   let routed = Delivery.view_inbox view id in
                   if acc <> None || List.equal same routed inbox then acc
                   else
                     Some
                       (Fmt.str "round %d: inbox of %a differs" round
                          Node_id.pp id))
                 inboxes None)

  (* [Net.run] (without [stop]) / [Net.run_until] (with it), calling
     [after_round] after every round. *)
  let run_stepped ?(max_rounds = 10_000) ?stop net ~after_round =
    if stop = None && not (Net.has_correct net) then `No_correct_nodes
    else
      let finished () =
        match stop with
        | None -> if Net.all_halted net then Some `All_halted else None
        | Some stop -> if stop net then Some `Stopped else None
      in
      let rec go () =
        match finished () with
        | Some f -> f
        | None ->
            if Net.round net >= max_rounds then
              `Max_rounds_reached (Net.stalled net)
            else begin
              Net.step_round net;
              after_round ();
              go ()
            end
      in
      go ()

  let execute ?rushing ?seed ?faults ?trace ?classify ?stimulus ?max_rounds
      ?stop ?(settle = 0) ?monitor ?reference ~correct ~byzantine () =
    (* Event-based invariants need an enabled trace to subscribe to; give
       such a monitor one even if the caller did not ask for a trace. A
       round-only monitor reads no event, so its run records none. *)
    let trace =
      match (trace, monitor) with
      | Some tr, _ -> Some tr
      | None, Some m when Ubpa_monitor.needs_trace m -> Some (Trace.create ())
      | None, _ -> None
    in
    let net =
      create ?rushing ?seed ?faults ?trace ?classify ?stimulus ~correct
        ~byzantine ()
    in
    let after_round () =
      Option.iter (fun m -> observe m net) monitor;
      Option.iter (fun r -> check_reference ?classify r net) reference
    in
    (match (monitor, trace) with
    | Some monitor, Some tr when Trace.enabled tr ->
        Trace.subscribe tr (Ubpa_monitor.observe_event monitor)
    | _ -> ());
    let finished =
      (run_stepped ?max_rounds ?stop net ~after_round :> finished)
    in
    for _ = 1 to settle do
      Net.step_round net;
      after_round ()
    done;
    collect net ~finished
end
