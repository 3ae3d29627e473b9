(** Online safety monitors, driven directly with hand-built observations
    and trace events — every invariant must fire on its violation, stay
    green otherwise, skip excused nodes, and report (never assert). *)

open Ubpa_util
open Ubpa_sim
open Helpers
module M = Ubpa_monitor

let id i = Node_id.of_int i

let obs ?(joined = 1) ?halted ?(down = false) ?output i =
  { M.node = id i; joined_at = joined; halted_at = halted; down; output }

let fires ?excused ~round invariants observations =
  let m = M.create ?excused invariants in
  M.observe m ~round observations;
  M.first_violation m

let test_agreement () =
  let inv = [ M.agreement ~equal:Int.equal ~pp:Fmt.int () ] in
  let split =
    [ obs 1 ~halted:3 ~output:0; obs 2 ~halted:3 ~output:1; obs 3 ~output:1 ]
  in
  (match fires ~round:3 inv split with
  | Some v ->
      Alcotest.(check string) "invariant name" "agreement" v.M.invariant;
      check_int "round recorded" 3 v.M.round
  | None -> Alcotest.fail "split decision must fire");
  check_true "unanimous is green"
    (fires ~round:3 inv [ obs 1 ~halted:3 ~output:1; obs 2 ~halted:3 ~output:1 ]
    = None);
  check_true "provisional outputs are not decisions"
    (fires ~round:3 inv [ obs 1 ~halted:3 ~output:0; obs 2 ~output:1 ] = None)

let test_excused_invisible () =
  let inv = [ M.agreement ~equal:Int.equal () ] in
  check_true "excused node cannot violate"
    (fires
       ~excused:(Node_id.Set.singleton (id 2))
       ~round:3 inv
       [ obs 1 ~halted:3 ~output:0; obs 2 ~halted:3 ~output:1 ]
    = None)

let test_validity () =
  let inv = [ M.validity ~ok:(fun _ v -> v = 0 || v = 1) () ] in
  (match fires ~round:4 inv [ obs 1 ~halted:4 ~output:7 ] with
  | Some v -> check_true "names the node" (v.M.node = Some (id 1))
  | None -> Alcotest.fail "out-of-range decision must fire");
  check_true "valid decision green"
    (fires ~round:4 inv [ obs 1 ~halted:4 ~output:1 ] = None)

let test_termination_by () =
  let inv = [ M.termination_by ~round:5 () ] in
  check_true "before the deadline nothing fires"
    (fires ~round:4 inv [ obs 1 ] = None);
  (match fires ~round:5 inv [ obs 1 ~halted:3 ~output:1; obs 2 ] with
  | Some v -> check_true "laggard named" (v.M.node = Some (id 2))
  | None -> Alcotest.fail "laggard at the deadline must fire");
  check_true "a down node is not a laggard"
    (fires ~round:5 inv [ obs 1 ~halted:3 ~output:1; obs 2 ~down:true ] = None)

let test_progress_by () =
  let inv =
    [
      M.progress_by ~name:"has-output" ~round:4
        ~ok:(fun o -> o.M.output <> None)
        ();
    ]
  in
  (match fires ~round:4 inv [ obs 1 ~output:1; obs 2 ] with
  | Some v ->
      Alcotest.(check string) "custom name" "has-output" v.M.invariant
  | None -> Alcotest.fail "missing progress must fire");
  check_true "progress everywhere is green"
    (fires ~round:9 inv [ obs 1 ~output:1; obs 2 ~output:2 ] = None)

let test_unforgeable () =
  let inv =
    [ M.unforgeable ~keys:(fun o -> o) ~forged:(fun k -> k = 13) () ]
  in
  check_true "clean outputs green"
    (fires ~round:2 inv [ obs 1 ~output:[ 1; 2 ] ] = None);
  check_true "fires on a forged key even before halt"
    (fires ~round:2 inv [ obs 1 ~output:[ 1; 13 ] ] <> None)

let test_accept_relay () =
  let m = M.create [ M.accept_relay ~keys:(fun o -> o) () ] in
  (* Round 3: node 1 accepts key 7; node 2 has nothing yet — that is
     fine, relay allows one round. *)
  M.observe m ~round:3 [ obs 1 ~output:[ 7 ]; obs 2 ~output:[] ];
  check_true "one round of slack" (M.first_violation m = None);
  (* Round 4: node 2 still lacks it — violation. *)
  M.observe m ~round:4 [ obs 1 ~output:[ 7 ]; obs 2 ~output:[] ];
  (match M.first_violation m with
  | Some v -> check_true "laggard named" (v.M.node = Some (id 2))
  | None -> Alcotest.fail "missed relay must fire");
  (* Late joiners and down nodes are exempt. *)
  let m2 = M.create [ M.accept_relay ~keys:(fun o -> o) () ] in
  M.observe m2 ~round:3 [ obs 1 ~output:[ 7 ] ];
  M.observe m2 ~round:4
    [ obs 1 ~output:[ 7 ]; obs 2 ~joined:4 ~output:[]; obs 3 ~down:true ~output:[] ];
  check_true "late joiner and down node exempt" (M.first_violation m2 = None)

let test_no_send_after_halt () =
  let ev ?node ~round kind what = { Trace.round; node; kind; what } in
  let m = M.create [ M.no_send_after_halt () ] in
  M.observe_event m (ev ~node:(id 1) ~round:3 Trace.Halt "halt");
  M.observe_event m (ev ~node:(id 2) ~round:4 Trace.Send "send");
  check_true "other nodes may send" (M.first_violation m = None);
  M.observe_event m (ev ~node:(id 1) ~round:4 Trace.Send "send");
  (match M.first_violation m with
  | Some v ->
      check_true "halted sender named" (v.M.node = Some (id 1));
      check_int "at the send round" 4 v.M.round
  | None -> Alcotest.fail "send after halt must fire");
  (* Excused nodes are skipped at the event layer too. *)
  let m2 =
    M.create ~excused:(Node_id.Set.singleton (id 1)) [ M.no_send_after_halt () ]
  in
  M.observe_event m2 (ev ~node:(id 1) ~round:3 Trace.Halt "halt");
  M.observe_event m2 (ev ~node:(id 1) ~round:4 Trace.Send "send");
  check_true "excused events invisible" (M.first_violation m2 = None)

let test_fires_once_and_first () =
  let m =
    M.create
      [
        M.agreement ~equal:Int.equal ();
        M.validity ~ok:(fun _ v -> v < 10) ();
      ]
  in
  let bad = [ obs 1 ~halted:2 ~output:0; obs 2 ~halted:2 ~output:33 ] in
  M.observe m ~round:2 bad;
  M.observe m ~round:3 bad;
  M.observe m ~round:4 bad;
  check_int "each invariant fires at most once" 2
    (List.length (M.violations m));
  (match M.first_violation m with
  | Some v -> check_int "first violation keeps its round" 2 v.M.round
  | None -> Alcotest.fail "expected violations");
  check_false "all_green reports the truth" (M.all_green m)

let test_custom () =
  let inv =
    [
      M.custom ~name:"even-round-quiet"
        ~on_round:(fun ~round obs ->
          if round mod 2 = 0 && obs <> [] then
            Some (None, "observed on an even round")
          else None)
        ();
    ]
  in
  check_true "odd round green" (fires ~round:3 inv [ obs 1 ] = None);
  match fires ~round:4 inv [ obs 1 ] with
  | Some v ->
      Alcotest.(check string) "name" "even-round-quiet" v.M.invariant
  | None -> Alcotest.fail "custom hook must fire"

(* ----- when a monitored run records a trace ----- *)

module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module H = Ubpa_harness.Harness.Make (C)
module A = Ubpa_adversary.Consensus_attacks.Make (Unknown_ba.Value.Int)

(* The split-world consensus run of the delivery tests, watched by
   [invariants], with or without a caller-supplied trace. *)
let monitored_run ?trace invariants =
  let ids = Node_id.scatter ~seed:41L 10 in
  let correct_ids = List.filteri (fun i _ -> i < 8) ids in
  let byz_ids = List.filteri (fun i _ -> i >= 8) ids in
  let m = M.create invariants in
  let o =
    H.execute ~seed:17L ?trace ~monitor:m
      ~correct:(List.mapi (fun i nid -> (nid, i mod 2)) correct_ids)
      ~byzantine:(List.map (fun nid -> (nid, A.split_world 0 1)) byz_ids)
      ()
  in
  (o, m)

let metrics_summary mt =
  Metrics.
    ( (rounds mt, sends_correct mt, sends_byzantine mt, delivered mt),
      (delivered_per_round mt, wire_msgs mt, wire_bits mt),
      (wire_bits_per_round mt, kinds mt) )

let test_round_only_monitor_untraced () =
  (* Agreement and validity read only the per-round observations. The
     validity predicate rejects every decision, so both runs carry
     violations to compare. *)
  let invariants () =
    [
      M.agreement ~equal:Int.equal ();
      M.validity ~name:"rejects-all" ~ok:(fun _ _ -> false) ();
    ]
  in
  let o, m = monitored_run (invariants ()) in
  check_false "round-only monitor needs no trace" (M.needs_trace m);
  check_false "no implicit trace recorded" (Trace.enabled (H.Net.trace o.H.net));
  let trace = Trace.create () in
  let o', m' = monitored_run ~trace (invariants ()) in
  check_true "explicit trace honoured" (Trace.enabled (H.Net.trace o'.H.net));
  check_true "explicit trace recorded the run" (Trace.events trace <> []);
  check_true "same outputs" (o.H.outputs = o'.H.outputs);
  check_true "same finish" (o.H.finished = o'.H.finished);
  Alcotest.(check string)
    "same wire JSON bytes"
    (Json.to_string (Ubpa_obs.Wire.to_json (H.Net.wire o'.H.net)))
    (Json.to_string (Ubpa_obs.Wire.to_json (H.Net.wire o.H.net)));
  check_true "same metrics"
    (metrics_summary o.H.metrics = metrics_summary o'.H.metrics);
  check_true "the run has violations" (M.violations m <> []);
  check_true "same violations" (M.violations m = M.violations m')

(* A stub protocol: every node broadcasts one ping and halts in its first
   round. *)
module Ping_once = struct
  type input = unit
  type stimulus = Protocol.No_stimulus.t
  type output = unit
  type message = int
  type state = unit

  let name = "ping-once"
  let init ~self:_ ~round:_ ~ids:_ () = ()

  let step ~self:_ ~round:_ ~stim:_ () ~inbox:_ =
    ((), [ (Envelope.Broadcast, 0) ], Protocol.Stop ())

  include Protocol.Structural (Int)

  let pp_message = Fmt.int
end

module HP = Ubpa_harness.Harness.Make (Ping_once)

let test_event_invariant_gets_trace () =
  (* A node restarted under its old identity sends again after it
     halted. The lockstep engine never steps a halted node, so the
     restart is a second run watched by the same monitor: only the
     events of both runs show the send after the halt. *)
  let correct = List.map (fun nid -> (nid, ())) (Node_id.scatter ~seed:5L 3) in
  let m = M.create [ M.no_send_after_halt () ] in
  check_true "event invariant needs a trace" (M.needs_trace m);
  let first = HP.execute ~monitor:m ~correct ~byzantine:[] () in
  check_true "implicit trace recorded"
    (Trace.enabled (HP.Net.trace first.HP.net));
  check_true "first run is green" (M.all_green m);
  let _ = HP.execute ~monitor:m ~correct ~byzantine:[] () in
  match M.first_violation m with
  | Some v ->
      Alcotest.(check string) "invariant" "no-send-after-halt" v.M.invariant;
      check_int "in the restart's first round" 1 v.M.round
  | None -> Alcotest.fail "send after halt must fire without an explicit trace"

let test_custom_event_hook_sees_every_event () =
  let count = ref 0 in
  let counter =
    M.custom ~name:"count-events"
      ~on_event:(fun _ ->
        incr count;
        None)
      ()
  in
  let o, m = monitored_run [ counter ] in
  check_true "custom event hook needs a trace" (M.needs_trace m);
  check_true "implicit trace recorded" (Trace.enabled (H.Net.trace o.H.net));
  let trace = Trace.create () in
  let _ = monitored_run ~trace [ M.agreement ~equal:Int.equal () ] in
  check_true "the run has events" (!count > 0);
  check_int "one call per trace event" (List.length (Trace.events trace)) !count

let suite =
  ( "monitor",
    [
      quick "agreement" test_agreement;
      quick "excused nodes are invisible" test_excused_invisible;
      quick "validity" test_validity;
      quick "termination-by deadline" test_termination_by;
      quick "progress-by deadline" test_progress_by;
      quick "unforgeability" test_unforgeable;
      quick "accept-relay" test_accept_relay;
      quick "no send after halt (events)" test_no_send_after_halt;
      quick "fires once, first violation kept" test_fires_once_and_first;
      quick "custom invariant" test_custom;
      quick "round-only monitor records no trace"
        test_round_only_monitor_untraced;
      quick "event invariant gets an implicit trace"
        test_event_invariant_gets_trace;
      quick "custom event hook sees every event"
        test_custom_event_hook_sees_every_event;
    ] )
