(** Tests for the adversary framework itself: generic strategies and
    combinators, observed through consensus runs and a probe protocol. *)

open Ubpa_util
open Ubpa_sim
open Ubpa_scenarios
open Ubpa_adversary
open Helpers

module C = Scenarios.Consensus_int

let safe s =
  s.C.all_terminated && s.C.agreed && s.C.valid

let test_half_stubborn () =
  let s =
    C.run
      ~byz:(List.init 2 (fun _ -> C.Attacks.half_stubborn 9))
      ~n_correct:5 ~inputs:Helpers.binary_split ()
  in
  check_true "agreement under asymmetric quorums" (safe s)

let test_switch_at () =
  (* Behaves like a normal participant, turns into split-world mid-run. *)
  let turncoat =
    Combinators.switch_at ~round:6 Generic.mirror (C.Attacks.split_world 0 1)
  in
  let s = C.run ~byz:[ turncoat ] ~n_correct:4 ~inputs:binary_split () in
  check_true "agreement despite a turncoat" (safe s)

let test_merge () =
  let chimera =
    Combinators.merge [ C.Attacks.stubborn 7; Generic.spam ]
  in
  let s = C.run ~byz:[ chimera ] ~n_correct:4 ~inputs:binary_split () in
  check_true "agreement under merged attacks" (safe s)

let test_only_rounds () =
  let burst =
    Combinators.only_rounds (fun r -> r mod 3 = 0) (C.Attacks.split_world 0 1)
  in
  let s = C.run ~byz:[ burst ] ~n_correct:4 ~inputs:binary_split () in
  check_true "agreement under bursty attack" (safe s)

let test_target_subset () =
  let partial =
    Combinators.target_subset ~fraction:0.4 (C.Attacks.stubborn 3)
  in
  let s = C.run ~byz:[ partial ] ~n_correct:7 ~inputs:binary_split () in
  check_true "agreement under subset-visibility attack" (safe s)

let test_with_probability () =
  let flaky = Combinators.with_probability 0.5 (C.Attacks.split_world 0 1) in
  let s = C.run ~byz:[ flaky ] ~n_correct:4 ~inputs:binary_split () in
  check_true "agreement under probabilistic attack" (safe s)

(* Determinism: the same seed must produce the same execution even with
   randomized strategies. *)
let test_strategy_determinism () =
  let run () =
    C.run ~seed:77L
      ~byz:[ Generic.random_mix; Combinators.with_probability 0.3 Generic.spam ]
      ~n_correct:5 ~inputs:binary_split ()
  in
  let s1 = run () and s2 = run () in
  check_true "identical outputs" (s1.C.outputs = s2.C.outputs);
  check_int "identical message counts" s1.C.delivered_msgs s2.C.delivered_msgs

(* Strategy mechanics on a probe view. *)
let probe_view ~round ~correct : int Strategy.view =
  {
    Strategy.round;
    self = Node_id.of_int 1;
    correct;
    byzantine = [];
    inbox = [];
    rushing = [];
    equal_message = Int.equal;
  }

let test_subset_rerouting () =
  let broadcaster =
    Strategy.v ~name:"b" (fun _ _ _ -> [ (Envelope.Broadcast, 42) ])
  in
  let sub = Combinators.target_subset ~fraction:0.5 broadcaster in
  let act = Strategy.instantiate sub (Rng.create 1L) (Node_id.of_int 1) in
  let correct = List.map Node_id.of_int [ 10; 20; 30; 40 ] in
  let sends = act (probe_view ~round:1 ~correct) in
  check_int "broadcast became two targeted sends" 2 (List.length sends);
  List.iter
    (fun (dest, payload) ->
      check_int "payload preserved" 42 payload;
      match dest with
      | Envelope.To t ->
          check_true "targets the first half"
            (Node_id.to_int t = 10 || Node_id.to_int t = 20)
      | Envelope.Broadcast -> Alcotest.fail "no broadcasts expected"
      | Envelope.Multicast _ -> Alcotest.fail "no multicasts expected")
    sends

let test_switch_state_isolation () =
  (* Sub-strategies get independent RNG splits: instantiating the switch
     twice with the same seed gives identical behaviour. *)
  let s = Combinators.switch_at ~round:3 Generic.random_mix Generic.random_mix in
  let mk () = Strategy.instantiate s (Rng.create 9L) (Node_id.of_int 1) in
  let v =
    {
      (probe_view ~round:5 ~correct:(List.map Node_id.of_int [ 2; 3 ])) with
      Strategy.inbox = [ (Node_id.of_int 2, 5) ];
    }
  in
  check_true "deterministic" (mk () v = mk () v)

(* ----- withdrawn Byzantine nodes vanish from later views ----- *)

module CInt = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module CNet = Network.Make (CInt)

let test_withdrawn_byzantine_invisible () =
  (* A Byzantine node goes silent ([Generic.crash_after]) and is then
     withdrawn ([remove_byzantine]) while membership keeps changing: no
     later [Strategy.view.byzantine] may list it. *)
  let ids = Node_id.scatter ~seed:21L 10 in
  let correct_ids = List.filteri (fun i _ -> i < 6) ids in
  let witness = List.nth ids 6
  and crasher = List.nth ids 7
  and late_byz = List.nth ids 8
  and late_correct = List.nth ids 9 in
  let seen = ref [] in
  let recorder =
    Strategy.v ~name:"recorder" (fun _ _ v ->
        seen := (v.Strategy.round, v.Strategy.byzantine) :: !seen;
        [])
  in
  let net =
    CNet.create ~seed:3L
      ~correct:(List.mapi (fun i nid -> (nid, i mod 2)) correct_ids)
      ~byzantine:[ (witness, recorder); (crasher, Generic.crash_after 2) ]
      ()
  in
  for _ = 1 to 4 do
    CNet.step_round net
  done;
  CNet.remove_byzantine net crasher;
  (* Dynamic membership in both populations after the withdrawal. *)
  CNet.join_byzantine net late_byz Generic.silent;
  CNet.join_correct net late_correct 1;
  for _ = 1 to 4 do
    CNet.step_round net
  done;
  let appears nid (_, byz) = List.exists (Node_id.equal nid) byz in
  check_true "crashed node visible while still a member"
    (List.exists (fun ((r, _) as e) -> r <= 4 && appears crasher e) !seen);
  check_false "withdrawn node never reappears in later views"
    (List.exists (fun ((r, _) as e) -> r > 4 && appears crasher e) !seen);
  check_true "late Byzantine join is visible afterwards"
    (List.exists (fun ((r, _) as e) -> r > 5 && appears late_byz e) !seen);
  check_false "withdrawn node is gone from byzantine_ids"
    (List.exists (Node_id.equal crasher) (CNet.byzantine_ids net))

let suite =
  ( "adversary",
    [
      quick "half-stubborn asymmetric attack" test_half_stubborn;
      quick "switch_at turncoat" test_switch_at;
      quick "merge combinator" test_merge;
      quick "only_rounds gating" test_only_rounds;
      quick "target_subset partial visibility" test_target_subset;
      quick "with_probability flakiness" test_with_probability;
      quick "randomized strategies are seed-deterministic"
        test_strategy_determinism;
      quick "subset combinator reroutes broadcasts" test_subset_rerouting;
      quick "combinator state isolation" test_switch_state_isolation;
      quick "withdrawn byzantine node vanishes from views"
        test_withdrawn_byzantine_invisible;
    ] )
