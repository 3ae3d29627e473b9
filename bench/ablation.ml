open Ubpa_util
open Ubpa_sim
open Ubpa_scenarios
open Experiment

(* ------------------------------------------------------------------ *)
(* A1: rotor ablation — n > 4f vs n > 3f densities                      *)
(* ------------------------------------------------------------------ *)

let a1_table cfg =
  let t =
    Table.create ~title:"A1 (ablation): rotor at fault densities n>4f vs n>3f"
      ~columns:[ "density"; "n"; "f"; "rounds(max)"; "good round" ]
  in
  pool_rows cfg t
    [
      ("n>4f", 9, 2);
      ("n>3f", 7, 2);
      ("n>4f", 17, 4);
      ("n>3f", 13, 4);
      ("n>4f", 25, 6);
      ("n>3f", 19, 6);
    ]
    (fun (label, n, f) ->
      let byz =
        List.init f (fun i ->
            Scenarios.Rotor_int.Attacks.staggered_announcer
              ~fraction:(0.34 +. (0.05 *. float_of_int (i mod 6))))
      in
      let s = Scenarios.Rotor_int.run ~byz ~n_correct:(n - f) () in
      [
        [
          label;
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_int
            (List.fold_left max 0 s.Scenarios.Rotor_int.termination_rounds);
          bool_cell s.Scenarios.Rotor_int.good_round_exists;
        ];
      ]);
  t

let a1 =
  tabular ~id:"A1" ~title:"rotor density ablation" a1_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "A1.good-round"
          "rotor finds a good round at both n>4f and n>3f densities"
          (all_yes "good round");
      ])

(* ------------------------------------------------------------------ *)
(* A2: AA discard-rule ablation when f is misestimated                  *)
(* ------------------------------------------------------------------ *)

(* A2 runs E6's known-f baseline under E6's pull-apart attack. *)
module Da = Paper.Da
module Da_h = Paper.Da_h

let dolev_under_attack ~n_correct ~byz_count ~assumed_f =
  let ids = Scenarios.make_ids ~seed:74L (n_correct + byz_count) in
  let correct_ids = List.filteri (fun i _ -> i < n_correct) ids in
  let byz_ids = List.filteri (fun i _ -> i >= n_correct) ids in
  let correct =
    List.mapi
      (fun i id ->
        ( id,
          { Da.value = float_of_int (10 * i); iterations = 1; f = assumed_f } ))
      correct_ids
  in
  let byzantine =
    List.map
      (fun id -> (id, Paper.da_pull_apart ~low:(-1e6) ~high:1e6))
      byz_ids
  in
  let o = Da_h.execute ~correct ~byzantine () in
  let outs =
    List.map (fun (_, (p : Da.progress)) -> p.estimate) o.Da_h.outputs
  in
  match outs with
  | [] -> false
  | _ ->
      let lo, hi = Stats.min_max outs in
      let i_hi = float_of_int (10 * (n_correct - 1)) in
      lo >= 0. && hi <= i_hi

let a2_table cfg =
  let t =
    Table.create
      ~title:
        "A2 (ablation): discard rule under extreme-value attack when f is \
         misestimated"
      ~columns:[ "rule"; "actual f"; "assumed f"; "in-range" ]
  in
  let n_correct = 7 in
  pool_rows cfg t [ 1; 2; 3 ] (fun actual_f ->
      let byz =
        List.init actual_f (fun _ ->
            Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6)
      in
      let ours =
        Scenarios.Aa.run ~byz ~n_correct
          ~inputs:(fun i -> float_of_int (10 * i))
          ()
      in
      [
        "id-only n_v/3";
        Table.cell_int actual_f;
        "-";
        bool_cell ours.Scenarios.Aa.within_range;
      ]
      :: List.map
           (fun assumed_f ->
             [
               "known-f";
               Table.cell_int actual_f;
               Table.cell_int assumed_f;
               bool_cell
                 (dolev_under_attack ~n_correct ~byz_count:actual_f ~assumed_f);
             ])
           [ actual_f; max 0 (actual_f - 1) ]);
  t

let a2 =
  tabular ~id:"A2" ~title:"discard-rule ablation" a2_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "A2.id-only-robust"
          "the relative n_v/3 discard rule stays in range without knowing f"
          (forall (fun r ->
               get r "rule" <> "id-only n_v/3" || get r "in-range" = "yes"));
        claim "A2.known-f-fragile"
          "underestimating f breaks the known-f discard rule"
          (List.exists
             (fun r -> get r "rule" = "known-f" && get r "in-range" = "no")
             rows);
      ])

(* ------------------------------------------------------------------ *)
(* A3: appendix algorithms — terminating RB and renaming                *)
(* ------------------------------------------------------------------ *)

let a3_table cfg =
  let t =
    Table.create ~title:"A3: appendix algorithms (terminating RB, renaming)"
      ~columns:[ "algorithm"; "n"; "f"; "rounds"; "correct" ]
  in
  pool_rows cfg t [ 0; 1; 2; 3; 4 ] (fun f ->
      let n_correct = (2 * f) + 2 in
      let trb =
        Scenarios.Trb_str.run
          ~byz:(List.init f (fun _ -> Strategy.silent))
          ~n_correct ~payload:"m" ()
      in
      let rn =
        Scenarios.Renaming_run.run
          ~byz:(List.init f (fun _ -> Strategy.silent))
          ~n_correct ()
      in
      [
        [
          "terminating-rb";
          Table.cell_int trb.Scenarios.Trb_str.n;
          Table.cell_int trb.Scenarios.Trb_str.f;
          Table.cell_int trb.Scenarios.Trb_str.rounds;
          bool_cell
            (trb.Scenarios.Trb_str.agreed && trb.Scenarios.Trb_str.all_terminated);
        ];
        [
          "renaming";
          Table.cell_int rn.Scenarios.Renaming_run.n;
          Table.cell_int rn.Scenarios.Renaming_run.f;
          Table.cell_int rn.Scenarios.Renaming_run.rounds;
          bool_cell
            (rn.Scenarios.Renaming_run.consistent
            && rn.Scenarios.Renaming_run.names_are_dense);
        ];
      ]);
  t

let a3 =
  tabular ~id:"A3" ~title:"appendix algorithms" a3_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "A3.correct"
          "terminating RB and renaming are correct at every f"
          (all_yes "correct");
        claim "A3.constant-rounds" "both appendix algorithms finish within \
                                    10 rounds"
          (forall (fun r ->
               match geti r "rounds" with Some x -> x <= 10 | None -> false));
      ])

(* ------------------------------------------------------------------ *)
(* A4: rotor-driven binary consensus (strong validity, O(n) rounds)    *)
(* ------------------------------------------------------------------ *)

let a4_table cfg =
  let t =
    Table.create
      ~title:
        "A4: rotor-driven binary consensus — strong validity at O(n) rounds \
         vs Algorithm 3's O(f)"
      ~columns:
        [ "n"; "f"; "adversary"; "rounds"; "agreed"; "strong-valid"; "msgs" ]
  in
  pool_rows cfg t (f_sweep cfg) (fun f ->
      let n = (3 * f) + 1 in
      List.map
        (fun (label, byz) ->
          let s =
            Scenarios.Binary.run ~byz ~n_correct:(n - List.length byz)
              ~inputs:(fun i -> i mod 2 = 0)
              ()
          in
          [
            Table.cell_int s.Scenarios.Binary.n;
            Table.cell_int s.Scenarios.Binary.f;
            label;
            Table.cell_int s.Scenarios.Binary.rounds;
            bool_cell s.Scenarios.Binary.agreed;
            bool_cell s.Scenarios.Binary.valid;
            Table.cell_int s.Scenarios.Binary.delivered_msgs;
          ])
        [
          ("none", []);
          ( "split-world",
            List.init f (fun _ -> Ubpa_adversary.Bc_attacks.split_world) );
          ( "stubborn",
            List.init f (fun _ -> Ubpa_adversary.Bc_attacks.stubborn true) );
        ]);
  t

let a4 =
  tabular ~id:"A4" ~title:"binary consensus" a4_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "A4.agreement" "agreement and strong validity hold"
          (all_yes "agreed" && all_yes "strong-valid");
        claim "A4.round-linear" "rounds stay within 8*n+8 (O(n))"
          (forall (fun r ->
               match (geti r "n", geti r "rounds") with
               | Some n, Some x -> x <= (8 * n) + 8
               | _ -> false));
      ])

let experiments =
  [ a1; a2; a3; a4 ]
