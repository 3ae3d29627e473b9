(** Exhaustive checker (lib/check): verdicts on calibrated cells,
    counterexample replayability, --jobs and symmetry identity, the
    committed-baseline golden, and the chaos-vs-checker differential
    (one scripted fault plan through both systems must give byte-identical
    terminal states, stalled sets, and monitor verdicts). *)

open Ubpa_util
open Helpers
module M = Ubpa_monitor
module F = Ubpa_faults
module Ck_rb = Ubpa_check.Checker.Make (Ubpa_check.Models.Rb)
module Ck_cons = Ubpa_check.Checker.Make (Ubpa_check.Models.Consensus)

let verdict = function
  | Ubpa_check.Checker.Verified -> "verified"
  | Violated -> "violation"
  | Out_of_budget -> "out-of-budget"

(* ----- verdicts on the calibrated envelope cells ----- *)

let test_rb_verified () =
  let r = Ck_rb.check ~n:4 ~f:1 ~max_rounds:4 () in
  Alcotest.(check string) "n=4 f=1 proved" "verified" (verdict r.verdict);
  check_true "nothing to replay" (r.cex = None);
  check_true "symmetry pruned some orbits" (r.stats.sym_skips > 0);
  check_int "explored to the horizon" 4 r.stats.depth

let test_rb_benign_verified () =
  let r =
    Ck_rb.check ~n:4 ~f:0 ~crash_budget:1 ~omit_budget:1 ~max_rounds:4 ()
  in
  Alcotest.(check string)
    "one crash + one omission stay safe" "verified" (verdict r.verdict)

let test_consensus_violation () =
  (* n = 3, f = 1 sits on the 3f >= n boundary: agreement must break. *)
  let r = Ck_cons.check ~n:3 ~f:1 ~max_rounds:8 () in
  Alcotest.(check string) "boundary breaks" "violation" (verdict r.verdict);
  match r.cex with
  | None -> Alcotest.fail "violation without a counterexample"
  | Some cx ->
      Alcotest.(check string) "agreement is the broken property" "agreement"
        cx.cx_property;
      check_true "minimized script still reproduces it" cx.cx_replayed

(* ----- counterexample JSONL: round-trip and replay ----- *)

let test_rb_cex_roundtrip () =
  let r = Ck_rb.check ~n:3 ~f:1 ~max_rounds:5 () in
  Alcotest.(check string) "f > n/3 breaks RB" "violation" (verdict r.verdict);
  match r.cex with
  | None -> Alcotest.fail "violation without a counterexample"
  | Some cx ->
      check_true "replayed" cx.cx_replayed;
      check_true "some byz messages survive minimization" (cx.cx_byz_msgs > 0);
      (* the trace is standard JSONL: parse -> re-record -> serialize is
         the identity *)
      let events =
        match Ubpa_sim.Trace.of_jsonl cx.cx_jsonl with
        | Ok evs -> evs
        | Error e -> Alcotest.fail ("counterexample JSONL unparseable: " ^ e)
      in
      let tr = Ubpa_sim.Trace.create () in
      List.iter
        (fun (e : Ubpa_sim.Trace.event) ->
          Ubpa_sim.Trace.record tr ~round:e.round ?node:e.node ~kind:e.kind
            e.what)
        events;
      Alcotest.(check string)
        "trace JSONL round-trips byte-for-byte" cx.cx_jsonl
        (Ubpa_sim.Trace.to_jsonl tr);
      check_true "trace carries the violation event"
        (List.exists
           (fun (e : Ubpa_sim.Trace.event) ->
             e.kind = Ubpa_sim.Trace.Engine
             && String.length e.what >= 9
             && String.sub e.what 0 9 = "violation")
           events)

(* ----- determinism: --jobs and symmetry must not change the answer ----- *)

let test_jobs_identical () =
  let run jobs = Ck_rb.check ~jobs ~n:3 ~f:1 ~max_rounds:5 () in
  let a = run 1 and b = run 2 in
  check_true "full result identical at jobs 1 vs 2 (incl. cex JSONL)" (a = b);
  (* The benchmark's symmetry-reduced shape: the per-expansion payload
     memo must leak nothing between Pool workers. *)
  let run jobs = Ck_rb.check ~jobs ~symmetry:true ~n:4 ~f:1 ~max_rounds:3 () in
  let a = run 1 and b = run 2 in
  check_true "rb n=4 f=1 under symmetry verified"
    (a.verdict = Verified && a.stats.sym_skips > 0);
  check_true "and identical at jobs 1 vs 2" (a = b)

let test_symmetry_sound () =
  let on = Ck_rb.check ~symmetry:true ~n:4 ~f:1 ~max_rounds:3 () in
  let off = Ck_rb.check ~symmetry:false ~n:4 ~f:1 ~max_rounds:3 () in
  Alcotest.(check string) "same verdict" (verdict off.verdict)
    (verdict on.verdict);
  check_true "reduction actually pruned" (on.stats.sym_skips > 0);
  check_int "the full search prunes nothing" 0 off.stats.sym_skips;
  check_true "fewer distinct configs under the reduction"
    (on.stats.distinct < off.stats.distinct)

(* ----- canonical keys: same partition as the Format-built keys ----- *)

(* The RB and consensus keys as they were built with [Fmt] before the
   one-pass rewrite, kept verbatim as an oracle. Their break hints become
   newlines (at the last pending hint, and past the margin); the dedup
   partition they induce is what the new keys must reproduce. *)
module Oracle = struct
  module Rb = Unknown_ba.Reliable_broadcast.Make (Unknown_ba.Value.String)
  module Cons = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)

  let rb_state_key (st : Rb.state) =
    let heard =
      Bitset.fold st.heard_from ~init:[] ~f:(fun acc ix ->
          Id_table.id st.ids ix :: acc)
      |> List.sort Node_id.compare
    in
    let acc =
      List.sort
        (fun (a : Rb.accepted) (b : Rb.accepted) ->
          match String.compare a.payload b.payload with
          | 0 -> Node_id.compare a.sender b.sender
          | c -> c)
        st.accepted
    in
    let pp_acc ppf (a : Rb.accepted) =
      Fmt.pf ppf "%a/%a@%d" Fmt.string a.payload Node_id.pp a.sender
        a.accepted_round
    in
    Fmt.str "r=%d;p=%a;h=%a;a=%a" st.local_round
      Fmt.(option ~none:(any "-") string)
      st.my_payload
      Fmt.(list ~sep:comma Node_id.pp)
      heard
      Fmt.(list ~sep:semi pp_acc)
      acc

  let rb_output_key out =
    List.map
      (fun (a : Rb.accepted) ->
        Fmt.str "%s/%a@%d" a.payload Node_id.pp a.sender a.accepted_round)
      out
    |> List.sort String.compare
    |> String.concat ";"

  let rotor_fingerprint (t : Unknown_ba.Rotor_core.t) =
    Fmt.str "c=%a;s=%a;r=%d"
      Fmt.(list ~sep:comma Node_id.pp)
      t.c
      Fmt.(list ~sep:comma Node_id.pp)
      (Node_id.Set.elements t.s)
      t.r

  let core_key (t : Cons.Core.t) =
    let members =
      Bitset.fold t.members ~init:[] ~f:(fun acc ix -> Id_table.id t.ids ix :: acc)
      |> List.sort Node_id.compare
    in
    let silent =
      Bitset.fold t.phase_silent ~init:[] ~f:(fun acc ix ->
          if Bitset.mem t.members ix then Id_table.id t.ids ix :: acc else acc)
      |> List.sort Node_id.compare
    in
    let pair_cmp (a, b) (c, d) =
      match Node_id.compare a c with 0 -> Node_id.compare b d | x -> x
    in
    let cands = List.sort pair_cmp t.cand_buffer in
    let stash =
      List.sort
        (fun (a, x) (b, y) ->
          match Node_id.compare a b with 0 -> Int.compare x y | c -> c)
        t.strong_stash
    in
    let pp_opt_v = Fmt.(option ~none:(any "-") int) in
    Fmt.str
      "r=%d;x=%a;n=%d;m=%a;rot=%s;cb=%a;co=%a;ss=%a;si=%a;sp=%a;st=%a;ps=%a"
      t.local_round Fmt.int t.x_v t.n_v
      Fmt.(list ~sep:comma Node_id.pp)
      members
      (rotor_fingerprint t.rotor)
      Fmt.(
        list ~sep:semi (fun ppf (s, p) ->
            Fmt.pf ppf "%a>%a" Node_id.pp s Node_id.pp p))
      cands
      Fmt.(option ~none:(any "-") Node_id.pp)
      t.coordinator
      Fmt.(
        list ~sep:semi (fun ppf (s, x) ->
            Fmt.pf ppf "%a:%a" Node_id.pp s Fmt.int x))
      stash pp_opt_v t.sent_input pp_opt_v t.sent_prefer pp_opt_v
      t.sent_strong
      Fmt.(list ~sep:comma Node_id.pp)
      silent

  let cons_state_key (st : Cons.state) =
    Printf.sprintf "%s;d=%s" (core_key st.core)
      (match st.decided_phase with None -> "-" | Some p -> string_of_int p)
end

(* A model whose [state_key] also keeps the state it was asked about:
   [replay] keys every node's final state, so each replay hands the test
   the states it reached. *)
module Recording (M : Ubpa_check.Model.S) = struct
  include M

  let reached = ref []

  let state_key st =
    reached := st :: !reached;
    M.state_key st
end

module Rec_rb = Recording (Ubpa_check.Models.Rb)
module Rec_cons = Recording (Ubpa_check.Models.Consensus)
module Rck_rb = Ubpa_check.Checker.Make (Rec_rb)
module Rck_cons = Ubpa_check.Checker.Make (Rec_cons)

(* Seeded random adversary scripts: per round, each byz node sends a
   random palette message to each correct node with probability 1/2, and
   now and then a crash or a receive-omission lands. *)
let random_script rng ~palette ~correct ~byzantine ~len =
  List.init len (fun i ->
      let opts = palette ~arrival:(i + 2) in
      let byz =
        if opts = [] then []
        else
          List.concat_map
            (fun b ->
              List.filter_map
                (fun c ->
                  if Rng.bool rng then Some (b, c, Rng.pick rng opts) else None)
                correct)
            byzantine
      in
      let crash =
        if Rng.int rng 10 = 0 then Some (Rng.pick rng correct) else None
      in
      let omit =
        if Rng.int rng 10 = 0 then
          let src = Rng.pick rng (correct @ byzantine) in
          let dst = Rng.pick rng correct in
          if Node_id.equal src dst then None else Some (src, dst)
        else None
      in
      (crash, omit, byz))

(* New-key equality must hold exactly when oracle-key equality holds, over
   all pairs: the two keyings are then one bijection between their
   classes, which the two maps below check in one pass. *)
let same_partition what pairs =
  let fwd = Hashtbl.create 256 and bwd = Hashtbl.create 256 in
  check_true (what ^ ": no newline in any key")
    (List.for_all (fun (k, _) -> not (String.contains k '\n')) pairs);
  List.iter
    (fun (k, o) ->
      (match Hashtbl.find_opt fwd k with
      | Some o' when o' <> o ->
          Alcotest.failf "%s: key %S merges oracle classes %S and %S" what k o
            o'
      | _ -> Hashtbl.replace fwd k o);
      match Hashtbl.find_opt bwd o with
      | Some k' when k' <> k ->
          Alcotest.failf "%s: oracle class %S split into %S and %S" what o k k'
      | _ -> Hashtbl.replace bwd o k)
    pairs;
  Hashtbl.length fwd

let test_rb_keys_partition () =
  let rng = Rng.create 2024L in
  let states = ref [] and outputs = ref [] in
  List.iter
    (fun n ->
      let correct, byzantine = Rck_rb.population ~seed:7L ~n ~f:1 in
      List.iter
        (fun (_, inputs) ->
          let correct_inputs = List.combine correct inputs in
          for _ = 1 to 150 do
            let max_rounds = 1 + Rng.int rng 6 in
            let len = Rng.int rng (max_rounds + 1) in
            let actions =
              random_script rng
                ~palette:(Rec_rb.palette ~correct ~byzantine)
                ~correct ~byzantine ~len
              |> List.map (fun (crash, omit, byz) ->
                     { Rck_rb.crash; omit; byz })
            in
            Rec_rb.reached := [];
            let o =
              Rck_rb.replay ~max_rounds ~correct:correct_inputs ~byzantine
                ~actions ()
            in
            states := !Rec_rb.reached @ !states;
            outputs := List.map snd o.outputs @ !outputs
          done)
        (Rec_rb.roots ~correct ~byzantine))
    [ 4; 5 ];
  let classes =
    same_partition "rb state_key"
      (List.map
         (fun st -> (Rec_rb.state_key st, Oracle.rb_state_key st))
         !states)
  in
  check_true "the scripts reach many distinct states" (classes > 100);
  let out_classes =
    same_partition "rb output_key"
      (List.map
         (fun o -> (Rec_rb.output_key o, Oracle.rb_output_key o))
         !outputs)
  in
  check_true "and several distinct outputs" (out_classes > 3)

let test_consensus_keys_partition () =
  let rng = Rng.create 2025L in
  let states = ref [] in
  List.iter
    (fun n ->
      let correct, byzantine = Rck_cons.population ~seed:7L ~n ~f:1 in
      List.iter
        (fun (_, inputs) ->
          let correct_inputs = List.combine correct inputs in
          for _ = 1 to 100 do
            let max_rounds = 1 + Rng.int rng 6 in
            let len = Rng.int rng (max_rounds + 1) in
            let actions =
              random_script rng
                ~palette:(Rec_cons.palette ~correct ~byzantine)
                ~correct ~byzantine ~len
              |> List.map (fun (crash, omit, byz) ->
                     { Rck_cons.crash; omit; byz })
            in
            Rec_cons.reached := [];
            ignore
              (Rck_cons.replay ~max_rounds ~correct:correct_inputs ~byzantine
                 ~actions ());
            states := !Rec_cons.reached @ !states
          done)
        (Rec_cons.roots ~correct ~byzantine))
    [ 4; 5 ];
  let classes =
    same_partition "consensus state_key"
      (List.map
         (fun st -> (Rec_cons.state_key st, Oracle.cons_state_key st))
         !states)
  in
  check_true "the scripts reach many distinct states" (classes > 100)

(* ----- keys never see the shared table's index order ----- *)

(* The same nodes, inputs and rounds over two tables: a fresh one that the
   nodes fill as they go, and one another network filled first with the
   same ids in the opposite order plus strangers, stepped in the opposite
   node order. Every index differs between the runs; no state key may. *)
module Lockstep (Md : Ubpa_check.Model.S) = struct
  module P = Md.P

  let keys ~table ~order ~rounds nodes =
    let live =
      List.map
        (fun (id, input) ->
          (id, ref (Some (P.init ~self:id ~round:1 ~ids:table input))))
        nodes
    in
    let pending = ref [] and keys = ref [] in
    for round = 1 to rounds do
      let inbox =
        List.stable_sort (fun (a, _) (b, _) -> Node_id.compare a b) !pending
      in
      pending := [];
      List.iter
        (fun (id, st) ->
          match !st with
          | None -> ()
          | Some s ->
              let s, sends, status =
                P.step ~self:id ~round ~stim:[] s ~inbox
              in
              pending := !pending @ List.map (fun (_, m) -> (id, m)) sends;
              keys := (round, id, Md.state_key s) :: !keys;
              st :=
                (match status with
                | Ubpa_sim.Protocol.Stop _ -> None
                | Continue | Deliver _ -> Some s))
        (order live)
    done;
    List.sort compare !keys

  let test ~rounds () =
    let correct, byzantine = Ck_rb.population ~seed:7L ~n:5 ~f:0 in
    let filled = Id_table.create () in
    List.iter
      (fun id -> ignore (Id_table.index filled id))
      (Node_id.scatter ~seed:99L 6 @ List.rev correct);
    List.iter
      (fun (label, inputs) ->
        let nodes = List.combine correct inputs in
        let a = keys ~table:(Id_table.create ()) ~order:Fun.id ~rounds nodes
        and b = keys ~table:filled ~order:List.rev ~rounds nodes in
        check_int (label ^ ": every node keyed every round")
          (List.length a) (List.length b);
        check_true (label ^ ": keys independent of the table's order") (a = b))
      (Md.roots ~correct ~byzantine)
end

module Lock_rb = Lockstep (Ubpa_check.Models.Rb)
module Lock_cons = Lockstep (Ubpa_check.Models.Consensus)

(* ----- golden: the committed boundary counterexample ----- *)

(* `dune runtest` runs in the test directory, `dune exec` wherever the
   caller stands — accept both. *)
let baseline_cex =
  if Sys.file_exists "../bench/baseline/CEX_MC1.jsonl" then
    "../bench/baseline/CEX_MC1.jsonl"
  else "bench/baseline/CEX_MC1.jsonl"

let test_committed_cex_golden () =
  let ic = open_in_bin baseline_cex in
  let len = in_channel_length ic in
  let committed = really_input_string ic len in
  close_in ic;
  let r = Ck_rb.check ~n:3 ~f:1 ~max_rounds:5 () in
  match r.cex with
  | None -> Alcotest.fail "rb n=3 f=1 no longer yields a counterexample"
  | Some cx ->
      Alcotest.(check string)
        "fresh minimal counterexample matches bench/baseline/CEX_MC1.jsonl"
        committed cx.cx_jsonl;
      check_true "and it replays" cx.cx_replayed

(* ----- differential: one fault plan through engine and checker ----- *)

(* The same crash schedule (victim down from round 3, no recovery) runs
   through the real simulator (Network + Ubpa_faults + Harness) and the
   checker's scripted replay. Terminal state keys, outputs, halting
   rounds, finished/stalled shape, and online monitor verdicts must agree
   exactly — this is what licenses the checker's verdicts as statements
   about the engine's semantics. *)

module P = Ubpa_check.Models.Consensus.P
module H = Ubpa_harness.Harness.Make (P)

let crash_round = 3

let monitor ~victim =
  M.create
    ~excused:(Node_id.Set.of_list [ victim ])
    [
      M.agreement ~equal:Int.equal ~pp:Fmt.int ();
      M.validity ~ok:(fun _ v -> v = 0 || v = 1) ();
      M.no_send_after_halt ();
    ]

let engine_side ~max_rounds ~correct ~victim =
  let mon = monitor ~victim in
  let plan = F.make [ (victim, [ F.crash ~at:crash_round () ]) ] in
  let o =
    H.execute ~seed:7L ~faults:plan ~monitor:mon ~max_rounds ~correct
      ~byzantine:[] ()
  in
  let states =
    H.Net.states o.H.net
    |> List.map (fun (id, st) -> (id, Ubpa_check.Models.Consensus.state_key st))
    |> List.sort compare
  in
  (o, states, M.first_violation mon)

let checker_side ~max_rounds ~correct ~victim =
  let mon = monitor ~victim in
  let rec script r =
    if r > crash_round then []
    else
      (if r = crash_round then
         { Ck_cons.silent_action with crash = Some victim }
       else Ck_cons.silent_action)
      :: script (r + 1)
  in
  let o =
    Ck_cons.replay ~monitor:mon ~max_rounds ~correct ~byzantine:[]
      ~actions:(script 1) ()
  in
  (o, List.sort compare o.state_keys, M.first_violation mon)

let violation_key = Option.map (fun (v : M.violation) -> (v.invariant, v.round, v.detail))

let test_differential_terminating () =
  let correct_ids, _ = Ck_cons.population ~seed:7L ~n:4 ~f:0 in
  let victim = List.nth correct_ids 2 in
  let correct = List.mapi (fun i id -> (id, i mod 2)) correct_ids in
  let eo, estates, everdict = engine_side ~max_rounds:30 ~correct ~victim in
  let co, cstates, cverdict = checker_side ~max_rounds:30 ~correct ~victim in
  check_true "engine run halted" (eo.H.finished = `All_halted);
  check_true "checker replay halted" (co.Ck_cons.finished = `All_halted);
  check_int "same round count" eo.H.rounds co.Ck_cons.rounds;
  Alcotest.(check (list (pair node_id string)))
    "byte-identical terminal states" estates cstates;
  check_true "same decisions"
    (List.sort compare eo.H.outputs = List.sort compare co.Ck_cons.outputs);
  check_true "same monitor verdict (none)"
    (violation_key everdict = violation_key cverdict && everdict = None)

let test_differential_truncated () =
  (* Cut the run before termination: Max_rounds_reached must report the
     same stalled set from both systems — the crash victim included, and
     written off identically by the halt test (the checker's [all_done]
     mirrors [Network.all_halted]). *)
  let correct_ids, _ = Ck_cons.population ~seed:7L ~n:4 ~f:0 in
  let victim = List.nth correct_ids 2 in
  let correct = List.mapi (fun i id -> (id, i mod 2)) correct_ids in
  let eo, estates, _ = engine_side ~max_rounds:5 ~correct ~victim in
  let co, cstates, _ = checker_side ~max_rounds:5 ~correct ~victim in
  (match (eo.H.finished, co.Ck_cons.finished) with
  | `Max_rounds_reached es, `Max_rounds_reached cs ->
      Alcotest.(check (list node_id)) "identical stalled sets" es cs;
      check_true "the crash victim is reported stalled"
        (List.exists (Node_id.equal victim) es)
  | _ -> Alcotest.fail "expected Max_rounds_reached from both systems");
  Alcotest.(check (list (pair node_id string)))
    "byte-identical mid-run states" estates cstates

let suite =
  ( "check",
    [
      slow "rb n=4 f=1 verified exhaustively" test_rb_verified;
      quick "rb benign faults verified" test_rb_benign_verified;
      quick "consensus boundary violation replays" test_consensus_violation;
      quick "rb counterexample JSONL round-trips" test_rb_cex_roundtrip;
      quick "jobs 1 vs 2 byte-identical" test_jobs_identical;
      quick "rb keys: same partition as the Fmt oracle" test_rb_keys_partition;
      quick "consensus keys: same partition as the Fmt oracle"
        test_consensus_keys_partition;
      quick "rb keys: independent of the shared table's order"
        (Lock_rb.test ~rounds:4);
      quick "consensus keys: independent of the shared table's order"
        (Lock_cons.test ~rounds:12);
      slow "symmetry reduction is sound" test_symmetry_sound;
      quick "committed CEX_MC1.jsonl golden" test_committed_cex_golden;
      quick "differential: engine vs checker (halting)"
        test_differential_terminating;
      quick "differential: engine vs checker (stalled)"
        test_differential_truncated;
    ] )
