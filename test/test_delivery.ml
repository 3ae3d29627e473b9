(* Delivery: the arena core against the reference core.

   [Delivery.route_reference] is the seed engine's list-scan delivery kept
   verbatim as an executable specification; these tests replay randomized
   traffic through it and through [Delivery.route_arena], the engine, and
   require bit-for-bit identical inboxes, delivery counts and wire
   counters (the arena side charged once per broadcast or multicast, the
   reference side per delivery), hold a multicast equal to its
   per-member unicasts, then repeat the comparison at the network level,
   re-routing every round of full protocol runs through the reference
   core. *)

open Ubpa_util
open Ubpa_sim
open Helpers

let id i = Node_id.of_int i

(* ----- randomized traffic through the arena and reference cores ----- *)

let same_inboxes a b =
  Node_id.Map.equal
    (fun a b ->
      List.length a = List.length b
      && List.for_all2
           (fun (s1, p1) (s2, p2) -> Node_id.equal s1 s2 && p1 = p2)
           a b)
    a b

(* Run both cores with wire observers attached at their accept points
   and require identical inboxes, counts and wire counters. [Wire.equal]
   is multiset-shaped (per round, node and kind), which is exactly the
   guarantee — the reference core charges a broadcast recipient by
   recipient, the arena core once for all of them. *)
let kind _ = "m"
let bits payload = 16 + (8 * payload)

(* The accept-point hooks of both cores as one sorted multiset of
   (recipient, sender, payload) deliveries: the arena core's broadcasts
   expanded to every present node outside their exclusion list. The
   arena core fires its hooks in a different order than the reference
   core, so only the multiset is compared. *)
let same_hook_multiset ~present ~envelopes =
  let flat = ref [] in
  let add r s p = flat := (Node_id.to_int r, Node_id.to_int s, p) :: !flat in
  let _ =
    Delivery.route_reference
      ~on_deliver:(fun ~recipient ~src p -> add recipient src p)
      ~equal:Int.equal ~present ~envelopes ()
  in
  let expected = List.sort compare !flat in
  flat := [];
  let k_ok = ref true in
  let _ =
    Delivery.route_arena
      ~on_deliver:(fun ~recipient ~src p -> add recipient src p)
      ~on_broadcast:(fun ~src p ~audience ~k ~excluded ->
        let reached =
          Node_id.Set.diff
            (Node_id.Set.of_list (Array.to_list audience))
            (Node_id.Set.of_list excluded)
        in
        if k <> Node_id.Set.cardinal reached then k_ok := false;
        Node_id.Set.iter (fun r -> add r src p) reached)
      ~state:(Delivery.arena_create ()) ~equal:Int.equal ~present ~envelopes
      ()
  in
  !k_ok && expected = List.sort compare !flat

let matches_reference ~present ~envelopes =
  let ref_wire = Ubpa_obs.Wire.create () and wire = Ubpa_obs.Wire.create () in
  let ref_inboxes, ref_count =
    reference_round ~wire:ref_wire ~round:1 ~kind ~bits ~equal:Int.equal
      ~present ~envelopes ()
  in
  let inboxes, count =
    arena_round ~wire ~round:1 ~kind ~bits ~equal:Int.equal ~present
      ~envelopes ()
  in
  count = ref_count
  && same_inboxes ref_inboxes inboxes
  && Ubpa_obs.Wire.equal ref_wire wire
  && same_hook_multiset ~present ~envelopes

let check_same ~present ~envelopes =
  Alcotest.(check bool)
    "count, inboxes and wire counters match the reference" true
    (matches_reference ~present ~envelopes)

let test_differential_random () =
  let rng = Rng.create 0xD311FEA7L in
  for _ = 1 to 300 do
    let present, envelopes = random_traffic rng in
    check_same ~present ~envelopes
  done

let test_differential_adversarial () =
  (* Hand-built worst cases for the dedup keying. *)
  let present = Node_id.Set.of_list [ id 0; id 1; id 2 ] in
  let b = Envelope.broadcast in
  let u = Envelope.send in
  let cases =
    [
      (* Same payload broadcast twice by the same sender: one delivery each. *)
      [ b ~src:(id 0) 7; b ~src:(id 0) 7 ];
      (* Same payload from two senders: both delivered (keyed by sender). *)
      [ b ~src:(id 0) 7; b ~src:(id 1) 7 ];
      (* Unicast then broadcast of the same (sender, payload): the broadcast
         must still reach the recipients the unicast missed. *)
      [ u ~src:(id 0) ~dst:(id 1) 7; b ~src:(id 0) 7 ];
      (* Broadcast then duplicate unicast: the unicast adds nothing. *)
      [ b ~src:(id 0) 7; u ~src:(id 0) ~dst:(id 2) 7 ];
      (* Unicast to an absent node only. *)
      [ u ~src:(id 0) ~dst:(id 9) 7 ];
      (* Sender not present still delivers (rushing nodes may have halted). *)
      [ b ~src:(id 9) 3 ];
      [];
    ]
  in
  List.iter (fun envelopes -> check_same ~present ~envelopes) cases

let test_inbox_order () =
  (* Inboxes are sorted by sender, same-sender messages in send order. *)
  let present = Node_id.Set.of_list [ id 0 ] in
  let envelopes =
    [
      Envelope.broadcast ~src:(id 2) 20;
      Envelope.broadcast ~src:(id 1) 10;
      Envelope.broadcast ~src:(id 2) 21;
      Envelope.broadcast ~src:(id 1) 11;
    ]
  in
  let view =
    Delivery.route_arena ~state:(Delivery.arena_create ()) ~equal:Int.equal
      ~present ~envelopes ()
  in
  Alcotest.(check (list (pair int int)))
    "sender-sorted, send order within sender"
    [ (1, 10); (1, 11); (2, 20); (2, 21) ]
    (List.map
       (fun (s, p) -> (Node_id.to_int s, p))
       (Delivery.view_inbox view (id 0)))

(* ----- reused arena state and lazy views ----- *)

(* The arena state is the whole point of the engine: one grow-only
   structure fed round after round, presence changing under it, with every
   round's view still matching the reference core on fresh state. This is
   the test that would catch stale-round leakage (marks, slices or dedup
   tables surviving a clear). *)
let test_arena_state_reuse () =
  let rng = Rng.create 0xA7E4A57A7EL in
  let state : int Delivery.arena_state = Delivery.arena_create ~hint:4 () in
  for _ = 1 to 200 do
    let present, envelopes = random_traffic rng in
    let ref_inboxes, ref_count =
      Delivery.route_reference ~equal:Int.equal ~present ~envelopes ()
    in
    let view =
      Delivery.route_arena ~state ~equal:Int.equal ~present ~envelopes ()
    in
    Alcotest.(check int)
      "reused state: delivered" ref_count
      (Delivery.view_delivered view);
    Alcotest.(check bool)
      "reused state: inboxes" true
      (same_inboxes ref_inboxes (view_map view));
    (* Lazy reads agree with the materialised map, including nodes that
       are unknown or absent this round. *)
    Node_id.Map.iter
      (fun nid inbox ->
        Alcotest.(check (list (pair int int)))
          "view_inbox = map entry"
          (List.map (fun (s, p) -> (Node_id.to_int s, p)) inbox)
          (List.map
             (fun (s, p) -> (Node_id.to_int s, p))
             (Delivery.view_inbox view nid)))
      ref_inboxes;
    Alcotest.(check (list (pair int int)))
      "unknown recipient reads empty" []
      (List.map
         (fun (s, p) -> (Node_id.to_int s, p))
         (Delivery.view_inbox view (id 99)));
    Alcotest.(check bool)
      "view_present = present set" true
      (Node_id.Set.equal present
         (Node_id.Set.of_list (Delivery.view_present view)))
  done

(* QCheck differential: structured random batches — unicasts, broadcasts,
   back-to-back duplicates, absent recipients, absent senders — through
   the arena core against the reference core. *)
let gen_batch =
  QCheck2.Gen.(
    let* universe = int_range 2 9 in
    let* present_mask = array_size (pure universe) bool in
    let* msgs =
      list_size (int_bound 50)
        (triple (int_bound universe)
           (option (int_bound universe))
           (int_bound 4))
    in
    pure (universe, present_mask, msgs))

let prop_arena_differential =
  QCheck2.Test.make ~count:300
    ~name:"arena vs reference on random envelope batches"
    gen_batch
    (fun (universe, present_mask, msgs) ->
      let present =
        List.init universe Fun.id
        |> List.filter (fun i -> present_mask.(i))
        |> List.map id |> Node_id.Set.of_list
      in
      let envelopes =
        List.concat
          (List.mapi
             (fun i (src, dst, payload) ->
               let env =
                 match dst with
                 | None -> Envelope.broadcast ~src:(id src) payload
                 | Some d -> Envelope.send ~src:(id src) ~dst:(id d) payload
               in
               (* Every third envelope is sent twice back to back, so the
                  dedup paths are always exercised. *)
               if i mod 3 = 0 then [ env; env ] else [ env ])
             msgs)
      in
      matches_reference ~present ~envelopes)

(* QCheck differential aimed at the seal's compaction pass: the same
   (recipient, sender, payload) unicast repeated, an equal broadcast from
   that sender before, between or after the copies, and fan-in from many
   senders in descending id order (the slice sort's worst case), mixed
   with background traffic. *)
type dedup_item =
  | Noise of int * int option * int  (* src, dst (None = broadcast), payload *)
  | Repeat of int * int * int * int * [ `None | `Before | `Between | `After ]
      (* recipient, sender, payload, copies *)
  | Fan_in of int * int list * int  (* recipient, senders, payload *)

let gen_dedup_batch =
  QCheck2.Gen.(
    let* universe = int_range 2 9 in
    let* present_mask = array_size (pure universe) bool in
    let node = int_bound (universe - 1) in
    let item =
      frequency
        [
          ( 2,
            map3
              (fun s d p -> Noise (s, d, p))
              node (option node) (int_bound 3) );
          ( 3,
            let* r = node and* s = node and* p = int_bound 3 in
            let* copies = int_range 2 3 in
            let* at = oneofl [ `None; `Before; `Between; `After ] in
            pure (Repeat (r, s, p, copies, at)) );
          ( 1,
            let* r = node and* p = int_bound 3 in
            let* senders = list_size (int_range 2 universe) node in
            pure
              (Fan_in
                 (r, List.sort_uniq (fun a b -> compare b a) senders, p)) );
        ]
    in
    let* items = list_size (int_bound 12) item in
    pure (universe, present_mask, items))

let expand_dedup_item = function
  | Noise (s, None, p) -> [ Envelope.broadcast ~src:(id s) p ]
  | Noise (s, Some d, p) -> [ Envelope.send ~src:(id s) ~dst:(id d) p ]
  | Repeat (r, s, p, copies, at) ->
      let u = Envelope.send ~src:(id s) ~dst:(id r) p in
      let b = Envelope.broadcast ~src:(id s) p in
      let us = List.init copies (fun _ -> u) in
      (match at with
      | `None -> us
      | `Before -> b :: us
      | `Between -> u :: b :: List.tl us
      | `After -> us @ [ b ])
  | Fan_in (r, senders, p) ->
      List.map (fun s -> Envelope.send ~src:(id s) ~dst:(id r) p) senders

let prop_arena_dedup =
  QCheck2.Test.make ~count:500
    ~name:"arena vs reference on repeated unicasts and equal broadcasts"
    gen_dedup_batch
    (fun (universe, present_mask, items) ->
      let present =
        List.init universe Fun.id
        |> List.filter (fun i -> present_mask.(i))
        |> List.map id |> Node_id.Set.of_list
      in
      let envelopes = List.concat_map expand_dedup_item items in
      matches_reference ~present ~envelopes)

(* ----- multicasts ----- *)

(* Destinations over a small node range and a pool of four groups: three
   drawn at random — ids outside the universe (never present) and
   repeated ids included — and a copy of the first, so one group is
   both physically shared by several envelopes and equal to a distinct
   array. *)
type mdest = Bc | Uc of int | Mc of int

type mitem =
  | Send of int * mdest * int  (** src, destination, payload *)
  | Twice of int * int * mdest * mdest
      (** one sender, one payload, two destinations in this order *)

let gen_multicast_batch =
  QCheck2.Gen.(
    let* universe = int_range 2 9 in
    let* present_mask = array_size (pure universe) bool in
    let* groups =
      array_size (pure 3)
        (array_size (int_range 1 (universe + 2)) (int_bound (universe + 1)))
    in
    let node = int_bound (universe - 1) in
    let mc = map (fun g -> Mc g) (int_bound 3) in
    let uc = map (fun d -> Uc d) node in
    let dest = frequency [ (1, pure Bc); (2, uc); (3, mc) ] in
    (* Every order of equal payloads from one sender that touches a
       multicast. *)
    let twice =
      oneof
        [
          pair uc mc; pair mc uc; pair mc (pure Bc); pair (pure Bc) mc;
          pair mc mc;
        ]
    in
    let item =
      frequency
        [
          (2, map3 (fun s d p -> Send (s, d, p)) node dest (int_bound 3));
          ( 3,
            map3 (fun s p (d1, d2) -> Twice (s, p, d1, d2)) node (int_bound 3)
              twice );
        ]
    in
    let* items = list_size (int_bound 16) item in
    pure (universe, present_mask, groups, items))

let multicast_envelopes groups items =
  let groups =
    Array.append (Array.map (Array.map id) groups) [| Array.map id groups.(0) |]
  in
  let env s d p =
    match d with
    | Bc -> Envelope.broadcast ~src:(id s) p
    | Uc r -> Envelope.send ~src:(id s) ~dst:(id r) p
    | Mc g -> Envelope.multicast ~src:(id s) ~group:groups.(g) p
  in
  List.concat_map
    (function
      | Send (s, d, p) -> [ env s d p ]
      | Twice (s, p, d1, d2) -> [ env s d1 p; env s d2 p ])
    items

let present_of universe mask =
  List.init universe Fun.id
  |> List.filter (fun i -> mask.(i))
  |> List.map id |> Node_id.Set.of_list

let prop_arena_multicast =
  QCheck2.Test.make ~count:500
    ~name:"arena vs reference on multicasts mixed with broadcasts and unicasts"
    gen_multicast_batch
    (fun (universe, present_mask, groups, items) ->
      matches_reference
        ~present:(present_of universe present_mask)
        ~envelopes:(multicast_envelopes groups items))

(* Each multicast replaced, in place, by one unicast per listed member. *)
let expand_multicasts envelopes =
  List.concat_map
    (fun (env : int Envelope.t) ->
      match env.dst with
      | Envelope.Multicast group ->
          Array.to_list
            (Array.map (fun dst -> Envelope.send ~src:env.src ~dst env.payload)
               group)
      | Envelope.To _ | Envelope.Broadcast -> [ env ])
    envelopes

(* A multicast is its per-member unicasts: several rounds of each shape
   through its own reused arena state and its own wire, round by round
   the same inboxes and counts, and at the end the same wire — with more
   audiences over the run than the wire keeps interned at once. *)
let prop_multicast_is_unicasts =
  QCheck2.Test.make ~count:200
    ~name:"a multicast routes and charges like its per-member unicasts"
    QCheck2.Gen.(list_size (int_range 1 6) gen_multicast_batch)
    (fun rounds ->
      let sm = Delivery.arena_create () and su = Delivery.arena_create () in
      let wm = Ubpa_obs.Wire.create () and wu = Ubpa_obs.Wire.create () in
      let same_rounds =
        List.for_all
          (fun (round, (universe, present_mask, groups, items)) ->
            let present = present_of universe present_mask in
            let envelopes = multicast_envelopes groups items in
            let im, cm =
              arena_round ~state:sm ~wire:wm ~round ~kind ~bits
                ~equal:Int.equal ~present ~envelopes ()
            in
            let iu, cu =
              arena_round ~state:su ~wire:wu ~round ~kind ~bits
                ~equal:Int.equal ~present
                ~envelopes:(expand_multicasts envelopes) ()
            in
            cm = cu && same_inboxes im iu)
          (List.mapi (fun i r -> (i + 1, r)) rounds)
      in
      same_rounds && Ubpa_obs.Wire.equal wm wu)

let test_multicast_cases () =
  (* Hand-built cases for the record dedup across destination shapes. *)
  let present = Node_id.Set.of_list [ id 0; id 1; id 2; id 3 ] in
  let g = [| id 1; id 2 |] and h = [| id 2; id 3; id 3; id 9 |] in
  let m = Envelope.multicast and b = Envelope.broadcast in
  let u = Envelope.send in
  let cases =
    [
      (* Equal multicasts to one group: the second adds nothing. *)
      [ m ~src:(id 0) ~group:g 5; m ~src:(id 0) ~group:g 5 ];
      (* Overlapping groups: the second reaches only what the first
         missed; a repeated and an absent member change nothing. *)
      [ m ~src:(id 0) ~group:g 5; m ~src:(id 0) ~group:h 5 ];
      (* Equal content, distinct arrays. *)
      [ m ~src:(id 0) ~group:g 5; m ~src:(id 0) ~group:(Array.copy g) 5 ];
      (* Multicast then broadcast, and the reverse. *)
      [ m ~src:(id 0) ~group:g 5; b ~src:(id 0) 5 ];
      [ b ~src:(id 0) 5; m ~src:(id 0) ~group:g 5 ];
      (* A unicast to a member before and after the multicast, and to a
         non-member after it. *)
      [ u ~src:(id 0) ~dst:(id 2) 5; m ~src:(id 0) ~group:g 5 ];
      [ m ~src:(id 0) ~group:g 5; u ~src:(id 0) ~dst:(id 2) 5 ];
      [ m ~src:(id 0) ~group:g 5; u ~src:(id 0) ~dst:(id 3) 5 ];
      (* Nobody present in the group. *)
      [ m ~src:(id 0) ~group:[| id 7; id 9 |] 5 ];
      [ m ~src:(id 0) ~group:[||] 5 ];
    ]
  in
  List.iter (fun envelopes -> check_same ~present ~envelopes) cases

(* ----- full protocol runs, every round checked by the oracle ----- *)

module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module H = Ubpa_harness.Harness.Make (C)
module Net = H.Net
module A = Ubpa_adversary.Consensus_attacks.Make (Unknown_ba.Value.Int)

(* The split-world consensus run every network-level test uses, with
   each round re-routed through the reference core as it executes. *)
let checked_run ?faults ?trace () =
  let ids = Node_id.scatter ~seed:41L 10 in
  let correct_ids = List.filteri (fun i _ -> i < 8) ids in
  let byz_ids = List.filteri (fun i _ -> i >= 8) ids in
  let net =
    Net.create ~seed:17L ?faults ?trace
      ~correct:(List.mapi (fun i nid -> (nid, i mod 2)) correct_ids)
      ~byzantine:(List.map (fun nid -> (nid, A.split_world 0 1)) byz_ids)
      ()
  in
  let oracle = Ubpa_harness.Harness.Reference.create () in
  while (not (Net.all_halted net)) && Net.round net < 300 do
    Net.step_round net;
    H.check_reference oracle net
  done;
  (net, oracle)

let test_engine_equivalence () =
  let net, oracle = checked_run () in
  let module R = Ubpa_harness.Harness.Reference in
  Alcotest.(check bool) "all halted" true (Net.all_halted net);
  Alcotest.(check (option string)) "no divergence" None (R.divergence oracle);
  Alcotest.(check int) "every round checked" (Net.round net) (R.rounds oracle);
  Alcotest.(check int)
    "same deliveries" (R.delivered oracle)
    (Metrics.delivered (Net.metrics net));
  Alcotest.(check bool)
    "per-broadcast wire = per-delivery wire" true
    (Ubpa_obs.Wire.equal (R.wire oracle) (Net.wire net))

(* ----- trace-level determinism ----- *)

(* Stronger than outcome equivalence: the same seed must yield the same
   execution event for event. Every core the simulator has shipped —
   the reference core included — produced these exact JSONL traces (MD5
   and length pinned below), so a routing or fault-path change that
   moves one event, or one fault-stream draw, fails here; the oracle
   meanwhile checks each round's routing against the reference core. *)
let traced_jsonl ?faults () =
  let trace = Trace.create () in
  let _, oracle = checked_run ?faults ~trace () in
  Alcotest.(check (option string))
    "routing matches the reference core" None
    (Ubpa_harness.Harness.Reference.divergence oracle);
  let jsonl = Trace.to_jsonl trace in
  (Digest.to_hex (Digest.string jsonl), String.length jsonl)

let test_trace_determinism () =
  Alcotest.(check (pair string int))
    "no faults: byte-identical JSONL"
    ("57c905842a0648147f662a267b643d66", 34800)
    (traced_jsonl ());
  let ids = Node_id.scatter ~seed:41L 10 in
  let faults =
    Ubpa_faults.make ~loss:0.15 ~dup:0.1
      [
        (List.nth ids 0, [ Ubpa_faults.crash ~at:3 ~recover:6 () ]);
        ( List.nth ids 1,
          [ Ubpa_faults.send_omission ~first:2 ~last:8 ~prob:0.5 () ] );
        ( List.nth ids 2,
          [ Ubpa_faults.recv_omission ~first:2 ~last:8 ~prob:0.5 () ] );
      ]
  in
  (* Receive faults filter the arena view in ascending recipient order,
     so the fault stream is drawn exactly as it always was. *)
  Alcotest.(check (pair string int))
    "fault plan: byte-identical JSONL"
    ("a7269d47d51b9d98b6588859814e65a2", 65082)
    (traced_jsonl ~faults ())

(* ----- the fault path reads the view lazily ----- *)

(* Receive faults expand and store only their victims' inboxes. Every
   round of a run where recv-omission hits two of ten nodes: a
   non-victim's inbox is the view's own lazy read — entry for entry the
   same sender and physically the same payload, expanded afresh on each
   call — and a victim's is a stored, ordered sub-list of that read. *)
let test_fault_path_lazy_inboxes () =
  let ids = Node_id.scatter ~seed:41L 10 in
  let victims = [ List.nth ids 2; List.nth ids 5 ] in
  let faults =
    Ubpa_faults.make
      (List.map
         (fun v -> (v, [ Ubpa_faults.recv_omission ~first:1 ~last:20 ~prob:0.5 () ]))
         victims)
  in
  let correct_ids = List.filteri (fun i _ -> i < 8) ids in
  let byz_ids = List.filteri (fun i _ -> i >= 8) ids in
  let net =
    Net.create ~seed:17L ~faults
      ~correct:(List.mapi (fun i nid -> (nid, i mod 2)) correct_ids)
      ~byzantine:(List.map (fun nid -> (nid, A.split_world 0 1)) byz_ids)
      ()
  in
  let same_entry (s1, p1) (s2, p2) = Node_id.equal s1 s2 && p1 == p2 in
  let rec ordered_sub sub full =
    match (sub, full) with
    | [], _ -> true
    | _, [] -> false
    | x :: sub', y :: full' ->
        if same_entry x y then ordered_sub sub' full' else ordered_sub sub full'
  in
  let lazy_reads = ref 0 and victim_losses = ref 0 in
  while (not (Net.all_halted net)) && Net.round net < 20 do
    Net.step_round net;
    match Net.routed net with
    | None -> Alcotest.fail "a stepped network has a routed view"
    | Some (_, view) ->
        List.iter
          (fun nid ->
            let read = Delivery.view_inbox view nid and got = Net.inbox net nid in
            let victim =
              Ubpa_faults.recv_omission_prob faults ~node:nid
                ~round:(Net.round net)
              > 0.
            in
            if victim then begin
              check_true "victim inbox is an ordered sub-list of the view"
                (ordered_sub got read);
              check_true "victim inbox is stored once" (Net.inbox net nid == got);
              if List.length got < List.length read then incr victim_losses
            end
            else begin
              check_true "non-victim inbox is the lazy view read"
                (List.length got = List.length read
                && List.for_all2 same_entry got read);
              if read <> [] then begin
                (* Nothing stored: every read expands the view afresh. *)
                check_true "non-victim inbox is not materialised"
                  (Net.inbox net nid != got);
                incr lazy_reads
              end
            end)
          (Delivery.view_present view)
  done;
  check_true "non-victims read non-empty inboxes" (!lazy_reads > 0);
  check_true "the victims lost deliveries" (!victim_losses > 0)

(* ----- zero-correct-node networks ----- *)

let test_no_correct_nodes () =
  let empty = Net.create ~correct:[] ~byzantine:[] () in
  Alcotest.(check bool)
    "empty network" true
    (Net.run empty = `No_correct_nodes);
  let byz_only =
    Net.create ~correct:[]
      ~byzantine:
        (List.map
           (fun nid -> (nid, A.split_world 0 1))
           (Node_id.scatter ~seed:42L 3))
      ()
  in
  Alcotest.(check bool)
    "byzantine-only network" true
    (Net.run byz_only = `No_correct_nodes);
  Alcotest.(check int) "no rounds consumed" 0 (Net.round byz_only)

let test_queued_join_still_runs () =
  (* A queued correct join means the run is not vacuous. *)
  let net = Net.create ~correct:[] ~byzantine:[] () in
  Net.join_correct net (id 1) 0;
  Alcotest.(check bool)
    "queued correct join runs" true
    (Net.run ~max_rounds:50 net <> `No_correct_nodes)

(* ----- clock shim ----- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_ms ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ms () in
    Alcotest.(check bool) "now_ms non-decreasing" true (t >= !prev);
    prev := t
  done;
  Alcotest.(check bool)
    "elapsed_ms clamps to >= 0" true
    (Clock.elapsed_ms ~since:(!prev +. 1e9) >= 0.)

let suite =
  ( "delivery",
    [
      Alcotest.test_case "differential: randomized traffic" `Quick
        test_differential_random;
      Alcotest.test_case "differential: adversarial dedup cases" `Quick
        test_differential_adversarial;
      Alcotest.test_case "inbox ordering" `Quick test_inbox_order;
      Alcotest.test_case "differential: multicast dedup cases" `Quick
        test_multicast_cases;
      Alcotest.test_case "arena: reused state matches reference" `Quick
        test_arena_state_reuse;
      Alcotest.test_case "engine equivalence: full consensus run" `Quick
        test_engine_equivalence;
      Alcotest.test_case "trace determinism across cores (with faults)" `Quick
        test_trace_determinism;
      Alcotest.test_case "fault path: only victims' inboxes are filtered"
        `Quick test_fault_path_lazy_inboxes;
      Alcotest.test_case "run on zero-correct network" `Quick
        test_no_correct_nodes;
      Alcotest.test_case "queued correct join is not vacuous" `Quick
        test_queued_join_still_runs;
      Alcotest.test_case "clock shim is monotonic" `Quick test_clock_monotonic;
    ]
    @ Helpers.qcheck_cases
        [
          prop_arena_differential;
          prop_arena_dedup;
          prop_arena_multicast;
          prop_multicast_is_unicasts;
        ] )
