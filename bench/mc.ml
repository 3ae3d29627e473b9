open Ubpa_util
open Experiment

(* ------------------------------------------------------------------ *)
(* MC1: bounded exhaustive model checking                               *)
(* ------------------------------------------------------------------ *)

(* Six fixed cells through `Ubpa_check` (cells do not shrink under
   --fast: the verdicts ARE the claims, exactly like R1/CX1). Inside the
   n > 3f envelope the checker must prove safety exhaustively for both
   core protocols; at the f > n/3 boundary (and at two benign faults,
   which exceed the f = 1 budget of n = 4) it must produce a minimized,
   replayable counterexample. The rb n=3 counterexample trace is the
   committed CEX_MC1.jsonl side artifact; the two boundary cells are
   additionally re-run on two worker domains and compared field by field
   (the "det" column), pinning --jobs byte-identity. *)
let mc1_run cfg =
  let module Crb = Ubpa_check.Checker.Make (Ubpa_check.Models.Rb) in
  let module Cc = Ubpa_check.Checker.Make (Ubpa_check.Models.Consensus) in
  let t =
    Table.create
      ~title:
        "MC1: bounded exhaustive safety checking (frontier BFS over the M1 \
         adversary palette; see docs/CHECKING.md)"
      ~columns:
        [
          "protocol";
          "n";
          "f";
          "crashes";
          "omits";
          "rounds";
          "expect";
          "verdict";
          "ok";
          "explored";
          "distinct";
          "dedup";
          "sym-skips";
          "depth";
          "cex round";
          "cex msgs";
          "replayed";
          "det";
        ]
  in
  let equal_result (a : Ubpa_check.Checker.result)
      (b : Ubpa_check.Checker.result) =
    a.verdict = b.verdict && a.stats = b.stats
    && Option.equal
         (fun (x : Ubpa_check.Checker.cex) (y : Ubpa_check.Checker.cex) ->
           x = y)
         a.cex b.cex
  in
  let cells =
    [
      (* protocol, n, f, crashes, omits, rounds, expect, cross-jobs? *)
      ("rb", 3, 1, 0, 0, 5, "violation", true);
      ("rb", 4, 1, 0, 0, 5, "verified", false);
      ("rb", 4, 0, 1, 1, 4, "verified", false);
      ("consensus", 3, 1, 0, 0, 8, "violation", true);
      ("consensus", 4, 1, 0, 0, 7, "verified", false);
      ("consensus", 4, 0, 1, 1, 12, "violation", false);
    ]
  in
  let cex = ref "" in
  List.iter
    (fun (proto, n, f, crashes, omits, rounds, expect, cross_jobs) ->
      let run ?jobs () =
        match proto with
        | "rb" ->
            Crb.check ?jobs ~crash_budget:crashes ~omit_budget:omits ~n ~f
              ~max_rounds:rounds ()
        | _ ->
            Cc.check ?jobs ~crash_budget:crashes ~omit_budget:omits ~n ~f
              ~max_rounds:rounds ()
      in
      let r = run ?jobs:cfg.jobs () in
      let det =
        if not cross_jobs then "-"
        else if
          equal_result (run ~jobs:1 ()) (run ~jobs:2 ())
        then "yes"
        else "no"
      in
      let verdict = Ubpa_check.Checker.verdict_to_string r.verdict in
      (if String.equal proto "rb" && n = 3 then
         match r.cex with
         | Some cx -> cex := cx.cx_jsonl
         | None -> ());
      Table.add_row t
        [
          proto;
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_int crashes;
          Table.cell_int omits;
          Table.cell_int rounds;
          expect;
          verdict;
          bool_cell (String.equal expect verdict);
          Table.cell_int r.stats.explored;
          Table.cell_int r.stats.distinct;
          Table.cell_int r.stats.dedup_hits;
          Table.cell_int r.stats.sym_skips;
          Table.cell_int r.stats.depth;
          (match r.cex with
          | Some cx -> Table.cell_int cx.cx_round
          | None -> "-");
          (match r.cex with
          | Some cx -> Table.cell_int (cx.cx_byz_msgs + cx.cx_crashes + cx.cx_omits)
          | None -> "-");
          (match r.cex with
          | Some cx -> bool_cell cx.cx_replayed
          | None -> "-");
          det;
        ])
    cells;
  { table = t; complexity = []; side_files = side_file "CEX_MC1.jsonl" !cex }

let mc1 =
  {
    id = "MC1";
    title = "exhaustive model checking";
    run = mc1_run;
    claims =
      (fun _ o ->
        let open (val cells o : CELLS) in
        let violation_rows =
          List.filter (fun r -> get r "verdict" = "violation") rows
        in
        let verified_at id f_pred =
          List.exists
            (fun r ->
              get r "protocol" = id
              && get r "verdict" = "verified"
              && match geti r "f" with Some f -> f_pred f | None -> false)
            rows
        in
        [
          claim "MC1.envelope-verified"
            "every cell's verdict matches its expectation (safety proved \
             inside the n > 3f envelope, violated outside it)"
            (all_yes "ok");
          claim "MC1.two-protocols-proved"
            "both core protocols are exhaustively verified with f >= 1 \
             byzantine nodes"
            (verified_at "rb" (fun f -> f >= 1)
            && verified_at "consensus" (fun f -> f >= 1));
          claim "MC1.boundary-violation"
            "some cell outside the fault envelope yields a safety violation"
            (List.exists
               (fun r ->
                 match
                   (geti r "n", geti r "f", geti r "crashes", geti r "omits")
                 with
                 | Some n, Some f, Some c, Some o ->
                     3 * (f + c + o) >= n
                 | _ -> false)
               violation_rows);
          claim "MC1.cex-replayable"
            "every counterexample replays to the same violation under the \
             live trace engine"
            (violation_rows <> []
            && List.for_all (fun r -> get r "replayed" = "yes") violation_rows);
          claim "MC1.exhaustive"
            "no cell ran out of state budget (the verdicts are exhaustive, \
             not samples)"
            (forall (fun r -> get r "verdict" <> "out-of-budget"));
          claim "MC1.jobs-identical"
            "re-running checked cells on two worker domains reproduces the \
             full result (verdict, stats, counterexample) field by field"
            (all_yes "det");
        ]);
  }

let experiments = [ mc1 ]
