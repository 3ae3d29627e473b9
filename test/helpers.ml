(** Shared test plumbing. *)

open Ubpa_util

let node_id = Alcotest.testable Node_id.pp Node_id.equal

let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b
let check_int msg a b = Alcotest.(check int) msg a b

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* Deterministic inputs used all over the tests. *)
let binary_split i = i mod 2
let all_same _ = 7
let ramp i = float_of_int (10 * i)

let qcheck_cases props = List.map QCheck_alcotest.to_alcotest props

(* One round's worth of random traffic: a universe of nodes of which a
   random subset is present (models halted / not-yet-joined recipients),
   unicasts, broadcasts and multicasts in random proportion, with
   deliberate duplicate sends — same (sender, payload) repeated as
   broadcast, as multicast, as unicast, and as a mix. Multicasts go to a
   pool of three groups that may list ids outside the universe and the
   same id twice; the third is a copy of the first, so equal groups are
   both physically shared and distinct. *)
let random_traffic rng =
  let universe = 2 + Rng.int rng 9 in
  let ids = List.init universe Node_id.of_int in
  let present =
    List.filter (fun _ -> Rng.int rng 4 > 0) ids |> Node_id.Set.of_list
  in
  let group () =
    Array.init (1 + Rng.int rng universe) (fun _ ->
        Node_id.of_int (Rng.int rng (universe + 2)))
  in
  let g0 = group () in
  let groups = [| g0; group (); Array.copy g0 |] in
  let n_msgs = Rng.int rng 60 in
  let envelopes =
    List.concat_map
      (fun _ ->
        let src = Rng.pick rng ids in
        (* Small payload space so duplicates are common. *)
        let payload = Rng.int rng 5 in
        let env =
          match Rng.int rng 3 with
          | 0 -> Ubpa_sim.Envelope.broadcast ~src payload
          | 1 -> Ubpa_sim.Envelope.send ~src ~dst:(Rng.pick rng ids) payload
          | _ ->
              Ubpa_sim.Envelope.multicast ~src
                ~group:groups.(Rng.int rng 3)
                payload
        in
        (* Occasionally send the exact same envelope again back to back. *)
        if Rng.int rng 4 = 0 then [ env; env ] else [ env ])
      (List.init n_msgs Fun.id)
  in
  (present, envelopes)

(* An arena view materialised into the reference core's map shape. *)
let view_map v =
  List.fold_left
    (fun acc id -> Ubpa_sim.Delivery.(Node_id.Map.add id (view_inbox v id) acc))
    Node_id.Map.empty
    (Ubpa_sim.Delivery.view_present v)

(* One round through the arena core, wire- and metrics-charged the way
   the network charges them: per accepted unicast, and once per accepted
   broadcast. Returns the materialised inboxes and the delivered count. *)
let arena_round ?(state = Ubpa_sim.Delivery.arena_create ()) ?metrics ~wire
    ~round ~kind ~bits ~equal ~present ~envelopes () =
  let module W = Ubpa_obs.Wire in
  let charge count bits =
    Option.iter
      (fun m -> Ubpa_sim.Metrics.record_wire m ~round ~count ~bits)
      metrics
  in
  let on_deliver ~recipient ~src m =
    W.record wire ~round ~sender:src ~recipient ~kind:(kind m) ~bits:(bits m);
    charge 1 (bits m)
  in
  let on_broadcast ~src m ~audience ~k ~excluded =
    W.record_broadcast wire ~round ~sender:src ~audience ~excluded
      ~kind:(kind m) ~bits:(bits m);
    charge k (k * bits m)
  in
  let v =
    Ubpa_sim.Delivery.route_arena ~on_deliver ~on_broadcast ~state ~equal
      ~present ~envelopes ()
  in
  (view_map v, Ubpa_sim.Delivery.view_delivered v)

(* The oracle side: the reference core, every accepted delivery charged
   through [Wire.record] (and [Metrics.record_wire] with a count of 1). *)
let reference_round ?metrics ~wire ~round ~kind ~bits ~equal ~present
    ~envelopes () =
  let on_deliver ~recipient ~src m =
    Ubpa_obs.Wire.record wire ~round ~sender:src ~recipient ~kind:(kind m)
      ~bits:(bits m);
    Option.iter
      (fun mt -> Ubpa_sim.Metrics.record_wire mt ~round ~count:1 ~bits:(bits m))
      metrics
  in
  Ubpa_sim.Delivery.route_reference ~on_deliver ~equal ~present ~envelopes ()
