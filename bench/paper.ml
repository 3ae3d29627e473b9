open Ubpa_util
open Ubpa_sim
open Ubpa_harness
open Ubpa_scenarios
open Experiment

(* Float claims compare with this slack. *)
let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* E1: reliable broadcast — correctness, relay, unforgeability          *)
(* ------------------------------------------------------------------ *)

let e1_table cfg =
  let t =
    Table.create ~title:"E1: reliable broadcast in the id-only model"
      ~columns:
        [
          "n";
          "f";
          "adversary";
          "accepted";
          "consistent";
          "round(min)";
          "round(max)";
          "msgs";
        ]
  in
  pool_rows cfg t (sizes cfg) (fun n ->
      let f = f_of_n n in
      let cases =
        [
          ("none", [], false);
          ("silent", List.init f (fun _ -> Strategy.silent), false);
          ( "equivocating-sender",
            Scenarios.Rb.Attacks.equivocating_sender "m1" "m2"
            :: List.init (max 0 (f - 1)) (fun _ -> Strategy.silent),
            true );
          ( "partial-sender(0.4)",
            Scenarios.Rb.Attacks.partial_sender "m" ~fraction:0.4
            :: List.init (max 0 (f - 1)) (fun _ -> Strategy.silent),
            true );
        ]
      in
      List.filter_map
        (fun (label, byz, byz_sender) ->
          if f = 0 && byz_sender then None
          else
            let byz = if f = 0 then [] else byz in
            let s =
              Scenarios.Rb.run ~byz ~byz_sender
                ~n_correct:(n - List.length byz) ~payload:"m" ()
            in
            Some
              [
                Table.cell_int s.Scenarios.Rb.n;
                Table.cell_int s.Scenarios.Rb.f;
                label;
                bool_cell s.Scenarios.Rb.all_accepted_sender_payload;
                bool_cell s.Scenarios.Rb.consistent_acceptance;
                Table.cell_int s.Scenarios.Rb.min_accept_round;
                Table.cell_int s.Scenarios.Rb.max_accept_round;
                Table.cell_int s.Scenarios.Rb.delivered_msgs;
              ])
        cases);
  t

let e1 =
  tabular ~id:"E1" ~title:"reliable broadcast" e1_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E1.consistency"
          "acceptance is all-or-none across correct nodes (Lemma rb-correct)"
          (all_yes "consistent");
        claim "E1.accept-round"
          "honest-sender payloads are accepted by round 4 (round-3 rule \
           plus one relay round)"
          (forall (fun r ->
               get r "accepted" <> "yes"
               ||
               match geti r "round(max)" with
               | Some rm -> rm <= 4
               | None -> false));
        claim "E1.msg-quadratic"
          "deliveries stay within 6*n^2 (O(n^2) message complexity)"
          (forall (fun r ->
               match (geti r "n", geti r "msgs") with
               | Some n, Some m -> m <= 6 * n * n
               | _ -> false));
      ])

(* ------------------------------------------------------------------ *)
(* E2: rotor-coordinator — O(n) rounds, good round                      *)
(* ------------------------------------------------------------------ *)

let e2_table cfg =
  let t =
    Table.create ~title:"E2: rotor-coordinator termination and good rounds"
      ~columns:
        [ "n"; "f"; "adversary"; "rounds(max)"; "bound n+3"; "good round"; "msgs" ]
  in
  pool_rows cfg t (sizes cfg) (fun n ->
      let f = f_of_n n in
      let cases =
        [
          ("none", []);
          ("silent", List.init f (fun _ -> Strategy.silent));
          ( "staggered",
            List.init f (fun i ->
                Scenarios.Rotor_int.Attacks.staggered_announcer
                  ~fraction:(0.34 +. (0.1 *. float_of_int (i mod 4)))) );
        ]
      in
      List.map
        (fun (label, byz) ->
          let byz = if f = 0 then [] else byz in
          let s =
            Scenarios.Rotor_int.run ~byz ~n_correct:(n - List.length byz) ()
          in
          let rmax =
            List.fold_left max 0 s.Scenarios.Rotor_int.termination_rounds
          in
          [
            Table.cell_int s.Scenarios.Rotor_int.n;
            Table.cell_int s.Scenarios.Rotor_int.f;
            label;
            Table.cell_int rmax;
            Table.cell_int (n + 3);
            bool_cell s.Scenarios.Rotor_int.good_round_exists;
            Table.cell_int s.Scenarios.Rotor_int.delivered_msgs;
          ])
        cases);
  t

let e2 =
  tabular ~id:"E2" ~title:"rotor-coordinator" e2_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E2.round-bound"
          "rotor terminates within n+3 rounds (Theorem rc, O(n))"
          (le_cols "rounds(max)" "bound n+3");
        claim "E2.good-round"
          "every run contains a good round with a common correct \
           coordinator"
          (all_yes "good round");
      ])

(* E2b: figure-style series — per-round delivered messages of a rotor run,
   showing the Theta(n^2) echo burst at initialization and the thin
   steady-state tail. *)

let e2b_table _ =
  let t =
    Table.create
      ~title:"E2b: rotor message profile over time (n = 13, all correct)"
      ~columns:[ "round"; "delivered"; "profile" ]
  in
  let ids = Scenarios.make_ids ~seed:76L 13 in
  let module H = Harness.Make (Scenarios.Rotor_int.P) in
  let o =
    H.execute ~max_rounds:100
      ~correct:(List.mapi (fun i id -> (id, i)) ids)
      ~byzantine:[] ()
  in
  let rows = Metrics.delivered_per_round o.H.metrics in
  let peak = List.fold_left (fun acc (_, c) -> max acc c) 1 rows in
  List.iter
    (fun (round, count) ->
      let bar = String.make (max 1 (40 * count / peak)) '#' in
      Table.add_row t [ Table.cell_int round; Table.cell_int count; bar ])
    rows;
  t

let e2b =
  tabular ~id:"E2b" ~title:"rotor message profile" e2b_table (fun o ->
      let open (val cells o : CELLS) in
      let rounds = List.filter_map (fun r -> geti r "round") rows in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      [
        claim "E2b.round-order"
          "delivered_per_round rows come out strictly ascending in round"
          (ascending rounds);
        claim "E2b.steady-state"
          "after the round-3/4 echo burst each round carries at most n \
           deliveries"
          (forall (fun r ->
               match (geti r "round", geti r "delivered") with
               | Some rd, Some d -> rd <= 4 || d <= 13
               | _ -> false));
      ])

(* ------------------------------------------------------------------ *)
(* E3: consensus — O(f) rounds under the split-world adversary          *)
(* ------------------------------------------------------------------ *)

let e3_table cfg =
  let t =
    Table.create ~title:"E3: consensus round complexity vs f (n = 3f+1)"
      ~columns:[ "f"; "n"; "rounds(max)"; "phases"; "agreed"; "valid"; "msgs" ]
  in
  pool_rows cfg t (f_sweep cfg) (fun f ->
      let s =
        Scenarios.Consensus_int.run
          ~byz:
            (List.init f (fun _ ->
                 Scenarios.Consensus_int.Attacks.split_world 0 1))
          ~n_correct:((2 * f) + 1)
          ~inputs:(fun i -> i mod 2)
          ()
      in
      let rmax =
        List.fold_left max 0 s.Scenarios.Consensus_int.decision_rounds
      in
      [
        [
          Table.cell_int s.Scenarios.Consensus_int.f;
          Table.cell_int s.Scenarios.Consensus_int.n;
          Table.cell_int rmax;
          Table.cell_int ((rmax - 2 + 4) / 5);
          bool_cell s.Scenarios.Consensus_int.agreed;
          bool_cell s.Scenarios.Consensus_int.valid;
          Table.cell_int s.Scenarios.Consensus_int.delivered_msgs;
        ];
      ]);
  t

let e3 =
  tabular ~id:"E3" ~title:"consensus O(f)" e3_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E3.agreement" "agreement and validity hold in every run"
          (all_yes "agreed" && all_yes "valid");
        claim "E3.round-bound"
          "decisions within 5*(f+1)+2 rounds (Theorem earlyCon, O(f))"
          (forall (fun r ->
               match (geti r "f", geti r "rounds(max)") with
               | Some f, Some rm -> rm <= (5 * (f + 1)) + 2
               | _ -> false));
        claim "E3.phase-bound" "at most f+1 phases are needed"
          (forall (fun r ->
               match (geti r "f", geti r "phases") with
               | Some f, Some p -> p <= f + 1
               | _ -> false));
      ])

(* ------------------------------------------------------------------ *)
(* E4: consensus early termination — unanimous vs split inputs          *)
(* ------------------------------------------------------------------ *)

let e4_table cfg =
  let t =
    Table.create
      ~title:"E4: early termination (unanimous inputs decide in one phase)"
      ~columns:[ "n"; "f"; "inputs"; "rounds(max)"; "phases"; "agreed" ]
  in
  pool_rows cfg t (sizes cfg) (fun n ->
      let f = f_of_n n in
      List.map
        (fun (label, inputs) ->
          let s =
            Scenarios.Consensus_int.run
              ~byz:(List.init f (fun _ -> Strategy.silent))
              ~n_correct:(n - f) ~inputs ()
          in
          let rmax =
            List.fold_left max 0 s.Scenarios.Consensus_int.decision_rounds
          in
          [
            Table.cell_int n;
            Table.cell_int f;
            label;
            Table.cell_int rmax;
            Table.cell_int ((rmax - 2 + 4) / 5);
            bool_cell s.Scenarios.Consensus_int.agreed;
          ])
        [ ("unanimous", fun _ -> 1); ("split", fun i -> i mod 2) ]);
  t

let e4 =
  tabular ~id:"E4" ~title:"early termination" e4_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E4.agreement" "agreement holds in every run" (all_yes "agreed");
        claim "E4.early-termination"
          "unanimous inputs decide at the end of phase 1 (round 7)"
          (forall (fun r ->
               get r "inputs" <> "unanimous"
               || (geti r "rounds(max)" = Some 7 && geti r "phases" = Some 1)));
      ])

(* ------------------------------------------------------------------ *)
(* E5: approximate agreement — within range, halving, under attack      *)
(* ------------------------------------------------------------------ *)

let e5_table cfg =
  let t =
    Table.create ~title:"E5: approximate agreement (single round)"
      ~columns:[ "n"; "f"; "adversary"; "in-range"; "contraction"; "bound" ]
  in
  pool_rows cfg t (sizes cfg) (fun n ->
      let f = f_of_n n in
      let cases =
        [
          ("none", []);
          ( "pull-apart",
            List.init f (fun _ ->
                Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6) );
          ("outlier", List.init f (fun _ -> Ubpa_adversary.Aa_attacks.outlier 1e9));
          ( "tracker",
            List.init f (fun _ -> Ubpa_adversary.Aa_attacks.tracker ~offset:7.) );
        ]
      in
      List.map
        (fun (label, byz) ->
          let byz = if f = 0 then [] else byz in
          let s =
            Scenarios.Aa.run ~byz ~n_correct:(n - List.length byz)
              ~inputs:(fun i -> float_of_int (10 * i))
              ()
          in
          [
            Table.cell_int s.Scenarios.Aa.n;
            Table.cell_int s.Scenarios.Aa.f;
            label;
            bool_cell s.Scenarios.Aa.within_range;
            Table.cell_float ~digits:3 s.Scenarios.Aa.contraction;
            "0.500";
          ])
        cases);
  t

let e5 =
  tabular ~id:"E5" ~title:"approximate agreement" e5_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E5.containment"
          "outputs lie within the correct input range (Lemma aaWithin)"
          (all_yes "in-range");
        claim "E5.halving"
          "one round contracts the range by at least 1/2 (Lemma aaMed)"
          (forall (fun r ->
               match getf r "contraction" with
               | Some c -> c <= 0.5 +. eps
               | None -> false));
      ])

(* E5b: approximate agreement in a dynamic network — the range halves each
   round, except where a joiner's value widens it (the paper's caveat). *)

let e5b_table _ =
  let t =
    Table.create
      ~title:
        "E5b: dynamic approximate agreement (joins may widen the range, \
         halving resumes)"
      ~columns:[ "round"; "lo"; "hi"; "spread"; "event" ]
  in
  let s =
    Scenarios.Aa.run_dynamic ~n_start:7 ~iterations:10
      ~byz:
        (List.init 2 (fun _ ->
             Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6))
      ~joins:[ (4, 200.0); (4, 300.0); (4, 400.0); (4, 500.0) ]
      ~inputs:(fun i -> float_of_int (10 * i))
      ()
  in
  List.iter
    (fun (round, lo, hi) ->
      let joins =
        List.filter (fun (r, _) -> r = round) s.Scenarios.Aa.joins_applied
      in
      let event =
        match joins with
        | [] -> ""
        | l ->
            Printf.sprintf "join: %s"
              (String.concat ", "
                 (List.map (fun (_, v) -> Printf.sprintf "%.0f" v) l))
      in
      Table.add_row t
        [
          Table.cell_int round;
          Table.cell_float ~digits:2 lo;
          Table.cell_float ~digits:2 hi;
          Table.cell_float ~digits:4 (hi -. lo);
          event;
        ])
    s.Scenarios.Aa.range_per_round;
  Table.add_row t
    [
      "-";
      "-";
      "-";
      (if s.Scenarios.Aa.within_global_range then "in-range" else "VIOLATED");
      "final check";
    ];
  t

let e5b =
  tabular ~id:"E5b" ~title:"dynamic approximate agreement" e5b_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E5b.containment"
          "final outputs lie within the global input range despite joins"
          (List.exists
             (fun r ->
               get r "event" = "final check" && get r "spread" = "in-range")
             rows);
      ])

(* ------------------------------------------------------------------ *)
(* E6: iterated convergence — unknown-n/f vs Dolev et al. (known f)     *)
(* ------------------------------------------------------------------ *)

module Da = Ubpa_baselines.Dolev_aa
module Da_h = Harness.Make (Da)

(* A pull-apart attack over the baseline's own message type. *)
let da_pull_apart ~low ~high =
  Strategy.v ~name:"da-pull-apart" (fun _rng _self view ->
      let correct = view.Strategy.correct in
      let half = List.length correct / 2 in
      List.mapi
        (fun i t ->
          (Envelope.To t, Da.Estimate (if i < half then low else high)))
        correct)


let dolev_contraction_attacked ~n_correct ~byz_count ~f ~iterations =
  let ids = Scenarios.make_ids ~seed:71L (n_correct + byz_count) in
  let correct_ids = List.filteri (fun i _ -> i < n_correct) ids in
  let byz_ids = List.filteri (fun i _ -> i >= n_correct) ids in
  let correct =
    List.mapi
      (fun i id -> (id, { Da.value = float_of_int (10 * i); iterations; f }))
      correct_ids
  in
  let byzantine =
    List.map (fun id -> (id, da_pull_apart ~low:(-1e6) ~high:1e6)) byz_ids
  in
  let o = Da_h.execute ~correct ~byzantine () in
  let outs =
    List.map (fun (_, (p : Da.progress)) -> p.estimate) o.Da_h.outputs
  in
  let spread_in = float_of_int (10 * (n_correct - 1)) in
  if outs = [] then nan else Stats.range outs /. spread_in

let e6_table cfg =
  let t =
    Table.create
      ~title:
        "E6: iterated AA convergence under pull-apart attack — unknown n/f vs \
         known-f baseline"
      ~columns:
        [ "iterations"; "contraction(id-only)"; "contraction(known-f)"; "bound 2^-k" ]
  in
  let n_correct = 7 and byz_count = 3 in
  pool_rows cfg t [ 1; 2; 3; 4; 6; 8 ] (fun k ->
      let ours =
        Scenarios.Aa.run ~iterations:k
          ~byz:
            (List.init byz_count (fun _ ->
                 Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6))
          ~n_correct
          ~inputs:(fun i -> float_of_int (10 * i))
          ()
      in
      let theirs =
        dolev_contraction_attacked ~n_correct ~byz_count ~f:byz_count
          ~iterations:k
      in
      [
        [
          Table.cell_int k;
          Table.cell_float ~digits:6 ours.Scenarios.Aa.contraction;
          Table.cell_float ~digits:6 theirs;
          Table.cell_float ~digits:6 (0.5 ** float_of_int k);
        ];
      ]);
  t

let e6 =
  tabular ~id:"E6" ~title:"iterated convergence" e6_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E6.convergence-rate"
          "k iterations contract by 2^-k even under pull-apart attack"
          (forall (fun r ->
               match (getf r "contraction(id-only)", getf r "bound 2^-k") with
               | Some c, Some b -> c <= b +. eps
               | _ -> false));
        claim "E6.matches-known-f"
          "id-only convergence matches the known-f Dolev et al. baseline"
          (forall (fun r ->
               match
                 (getf r "contraction(id-only)", getf r "contraction(known-f)")
               with
               | Some a, Some b -> Float.abs (a -. b) <= eps
               | _ -> false));
      ])

(* ------------------------------------------------------------------ *)
(* E7: resiliency boundary n > 3f                                       *)
(* ------------------------------------------------------------------ *)

let e7_table cfg =
  let t =
    Table.create
      ~title:
        "E7: resiliency boundary (n = 13 fixed, f sweeps across n/3; \
         safety per algorithm)"
      ~columns:[ "algorithm"; "f"; "n>3f"; "runs"; "safe"; "violated" ]
  in
  let n = 13 in
  let algorithms =
    [
      ( "consensus (agreement)",
        fun ~seed ~f ->
          let s =
            Scenarios.Consensus_int.run ~seed ~max_rounds:400
              ~byz:
                (List.init f (fun _ ->
                     Scenarios.Consensus_int.Attacks.split_world 0 1))
              ~n_correct:(n - f)
              ~inputs:(fun i -> i mod 2)
              ()
          in
          s.Scenarios.Consensus_int.all_terminated
          && s.Scenarios.Consensus_int.agreed );
      ( "approx-agreement (containment)",
        fun ~seed ~f ->
          let s =
            Scenarios.Aa.run ~seed
              ~byz:
                (List.init f (fun _ ->
                     Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6))
              ~n_correct:(n - f)
              ~inputs:(fun i -> float_of_int (10 * i))
              ()
          in
          s.Scenarios.Aa.within_range );
      ( "reliable-broadcast (unforgeability)",
        fun ~seed ~f ->
          (* f forgers echo a payload attributed to a correct node that never
             sent it; past the boundary the forged echoes cross n_v/3, get
             relayed by correct nodes, and the forgery is accepted. *)
          let claimed = List.hd (Scenarios.make_ids ~seed (n - f)) in
          let s =
            Scenarios.Rb.run ~seed
              ~byz:
                (List.init f (fun _ ->
                     Scenarios.Rb.Attacks.forging_echoer "forged" ~claimed))
              ~n_correct:(n - f) ~payload:"real" ()
          in
          List.for_all
            (fun (_, entries) ->
              not (List.exists (fun (m, _, _) -> m = "forged") entries))
            s.Scenarios.Rb.accepted );
    ]
  in
  let cells =
    List.concat_map
      (fun (name, run_one) ->
        List.map (fun f -> (name, run_one, f)) [ 0; 2; 4; 5; 6 ])
      algorithms
  in
  pool_rows cfg t cells (fun (name, run_one, f) ->
      let safe = ref 0 and violated = ref 0 in
      List.iter
        (fun seed -> if run_one ~seed ~f then incr safe else incr violated)
        (seeds cfg);
      [
        [
          name;
          Table.cell_int f;
          bool_cell (n > 3 * f);
          Table.cell_int (List.length (seeds cfg));
          Table.cell_int !safe;
          Table.cell_int !violated;
        ];
      ]);
  t

let e7 =
  tabular ~id:"E7" ~title:"resiliency boundary" e7_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E7.safe-inside-boundary"
          "with n > 3f every seeded run is safe (optimal resiliency)"
          (forall (fun r ->
               get r "n>3f" <> "yes"
               || (geti r "violated" = Some 0 && geti r "safe" = geti r "runs")));
        claim "E7.violated-outside-boundary"
          "with n <= 3f the implemented attacks break safety"
          (forall (fun r ->
               get r "n>3f" <> "no"
               || match geti r "violated" with Some v -> v >= 1 | None -> false));
      ])

(* ------------------------------------------------------------------ *)
(* E8: message complexity vs the known-n/f baselines                    *)
(* ------------------------------------------------------------------ *)

module St = Ubpa_baselines.St_broadcast.Make (Unknown_ba.Value.String)
module St_h = Harness.Make (St)
module St_net = St_h.Net
module Pk = Ubpa_baselines.Phase_king.Make (Unknown_ba.Value.Int)
module Pk_h = Harness.Make (Pk)

let st_messages ~n =
  let ids = Scenarios.make_ids ~seed:72L n in
  let correct =
    List.mapi
      (fun i id ->
        (id, { St.payload = (if i = 0 then Some "m" else None); f = f_of_n n }))
      ids
  in
  let stop net =
    let reports = St_net.reports net in
    reports <> []
    && List.for_all
         (fun r ->
           match r.St_net.last_output with Some (_ :: _) -> true | _ -> false)
         reports
  in
  let o = St_h.execute ~max_rounds:20 ~stop ~correct ~byzantine:[] () in
  (o.St_h.delivered_msgs, o.St_h.rounds)

let pk_messages ~n =
  let ids = Scenarios.make_ids ~seed:73L n in
  let correct =
    List.mapi
      (fun i id -> (id, { Pk.value = i mod 2; members = ids; f = f_of_n n }))
      ids
  in
  let o = Pk_h.execute ~max_rounds:300 ~correct ~byzantine:[] () in
  (o.Pk_h.delivered_msgs, o.Pk_h.rounds)

let e8_table cfg =
  let t =
    Table.create
      ~title:
        "E8: message complexity, id-only vs known-n/f baselines (all-correct runs)"
      ~columns:
        [
          "n";
          "RB msgs(id-only)";
          "RB msgs(ST)";
          "cons msgs(id-only)";
          "cons msgs(king)";
          "cons rounds(id-only)";
          "cons rounds(king)";
        ]
  in
  pool_rows cfg t (sizes cfg) (fun n ->
      let rb = Scenarios.Rb.run ~n_correct:n ~payload:"m" () in
      let st_msgs, _ = st_messages ~n in
      let cons =
        Scenarios.Consensus_int.run ~n_correct:n ~inputs:(fun i -> i mod 2) ()
      in
      let pk_msgs, pk_rounds = pk_messages ~n in
      [
        [
          Table.cell_int n;
          Table.cell_int rb.Scenarios.Rb.delivered_msgs;
          Table.cell_int st_msgs;
          Table.cell_int cons.Scenarios.Consensus_int.delivered_msgs;
          Table.cell_int pk_msgs;
          Table.cell_int cons.Scenarios.Consensus_int.rounds;
          Table.cell_int pk_rounds;
        ];
      ]);
  t

let e8 =
  tabular ~id:"E8" ~title:"message complexity" e8_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E8.rb-overhead"
          "id-only RB costs at most 2x the known-n/f Srikanth-Toueg \
           baseline"
          (forall (fun r ->
               match (geti r "RB msgs(id-only)", geti r "RB msgs(ST)") with
               | Some ours, Some theirs -> ours <= 2 * theirs
               | _ -> false));
        claim "E8.consensus-overhead"
          "id-only consensus costs at most 6x the phase-king baseline"
          (forall (fun r ->
               match
                 (geti r "cons msgs(id-only)", geti r "cons msgs(king)")
               with
               | Some ours, Some theirs -> ours <= 6 * theirs
               | _ -> false));
      ])

(* E8b: message breakdown by kind inside the consensus algorithm. *)

module Cint = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module Cint_h = Harness.Make (Cint)

let consensus_kind_of (m : Cint.message) =
  match m with
  | Cint.Core.Init -> "init"
  | Cint.Core.Cand_echo _ -> "cand-echo"
  | Cint.Core.Input _ -> "input"
  | Cint.Core.Prefer _ -> "prefer"
  | Cint.Core.Strongprefer _ -> "strongprefer"
  | Cint.Core.Opinion _ -> "opinion"

let e8b_table cfg =
  let t =
    Table.create
      ~title:
        "E8b: consensus message breakdown by kind (send operations, \
         all-correct runs)"
      ~columns:[ "n"; "init"; "cand-echo"; "input"; "prefer"; "strongprefer"; "opinion" ]
  in
  pool_rows cfg t (sizes cfg) (fun n ->
      let ids = Scenarios.make_ids ~seed:75L n in
      let o =
        Cint_h.execute ~classify:consensus_kind_of ~max_rounds:500
          ~correct:(List.mapi (fun i id -> (id, i mod 2)) ids)
          ~byzantine:[] ()
      in
      let kinds = Metrics.kinds o.Cint_h.metrics in
      let get k = Option.value ~default:0 (List.assoc_opt k kinds) in
      [
        [
          Table.cell_int n;
          Table.cell_int (get "init");
          Table.cell_int (get "cand-echo");
          Table.cell_int (get "input");
          Table.cell_int (get "prefer");
          Table.cell_int (get "strongprefer");
          Table.cell_int (get "opinion");
        ];
      ]);
  t

let e8b =
  tabular ~id:"E8b" ~title:"message breakdown" e8b_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E8b.echo-quadratic"
          "candidate echoes account for 2*n^2 sends (the O(n^2) term)"
          (forall (fun r ->
               match (geti r "n", geti r "cand-echo") with
               | Some n, Some e -> e <= 2 * n * n
               | _ -> false));
        claim "E8b.opinion-constant"
          "opinion messages stay constant per run (coordinator only)"
          (forall (fun r ->
               match (geti r "n", geti r "opinion") with
               | Some n, Some o -> o <= n
               | _ -> false));
      ])

(* ------------------------------------------------------------------ *)
(* E9: parallel consensus — k instances                                 *)
(* ------------------------------------------------------------------ *)

let e9_table cfg =
  let t =
    Table.create ~title:"E9: parallel consensus with k instances (n = 7, f = 2)"
      ~columns:[ "k"; "rounds"; "msgs"; "agreed"; "pairs output" ]
  in
  pool_rows cfg t [ 0; 1; 2; 4; 8; 16 ] (fun k ->
      let s =
        Scenarios.Parallel_int.run
          ~byz:
            [
              Scenarios.Parallel_int.Attacks.ghost_instance ~id:999 1;
              Strategy.silent;
            ]
          ~n_correct:5
          ~inputs:(fun _ -> List.init k (fun j -> (j, 10 * j)))
          ()
      in
      let pairs =
        match s.Scenarios.Parallel_int.outputs with
        | (_, o) :: _ -> List.length o
        | [] -> 0
      in
      [
        [
          Table.cell_int k;
          Table.cell_int s.Scenarios.Parallel_int.rounds;
          Table.cell_int s.Scenarios.Parallel_int.delivered_msgs;
          bool_cell s.Scenarios.Parallel_int.agreed;
          Table.cell_int pairs;
        ];
      ]);
  t

let e9 =
  tabular ~id:"E9" ~title:"parallel consensus" e9_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E9.agreement" "pair-set agreement holds for every k"
          (all_yes "agreed");
        claim "E9.rounds-constant"
          "rounds do not grow with the number of instances k"
          (forall (fun r ->
               match geti r "rounds" with Some x -> x <= 8 | None -> false));
        claim "E9.all-instances-decide" "every started instance outputs a pair"
          (forall (fun r -> geti r "pairs output" = geti r "k"));
      ])

(* ------------------------------------------------------------------ *)
(* E10: dynamic total ordering                                          *)
(* ------------------------------------------------------------------ *)

let e10_table cfg =
  let t =
    Table.create ~title:"E10: total ordering under churn (chain-prefix / growth)"
      ~columns:
        [
          "scenario";
          "rounds";
          "events";
          "chain(max)";
          "prefix-ok";
          "finality lag";
          "msgs";
        ]
  in
  let cases =
    [
      ("static n=4", Scenarios.Total_order_str.no_churn, 4, 8, 1);
      ( "join@4",
        { Scenarios.Total_order_str.join_at = [ (4, 1) ]; leave_at = [] },
        4,
        10,
        1 );
      ( "leave@6",
        { Scenarios.Total_order_str.join_at = []; leave_at = [ (6, 1) ] },
        5,
        10,
        1 );
      ( "join+leave",
        { Scenarios.Total_order_str.join_at = [ (5, 1) ]; leave_at = [ (9, 1) ] },
        5,
        12,
        1 );
      ("3 events/round", Scenarios.Total_order_str.no_churn, 5, 8, 3);
    ]
  in
  pool_rows cfg t cases (fun (label, churn, n_genesis, rounds, epr) ->
      let s =
        Scenarios.Total_order_str.run ~churn ~n_genesis ~rounds
          ~events_per_round:epr ()
      in
      [
        [
          label;
          Table.cell_int s.Scenarios.Total_order_str.rounds;
          Table.cell_int s.Scenarios.Total_order_str.events_submitted;
          Table.cell_int
            (List.fold_left max 0 s.Scenarios.Total_order_str.chain_lengths);
          bool_cell s.Scenarios.Total_order_str.prefix_consistent;
          Table.cell_int
            (List.fold_left max 0 s.Scenarios.Total_order_str.frontier_lags);
          Table.cell_int s.Scenarios.Total_order_str.delivered_msgs;
        ];
      ]);
  t

let e10 =
  tabular ~id:"E10" ~title:"total ordering" e10_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E10.prefix-consistency"
          "per-node chains are prefix-consistent under churn"
          (all_yes "prefix-ok");
        claim "E10.finality-lag" "the finality frontier lags at most 20 rounds"
          (forall (fun r ->
               match geti r "finality lag" with
               | Some l -> l <= 20
               | None -> false));
      ])

(* ------------------------------------------------------------------ *)
(* E11/E12: impossibility constructions                                 *)
(* ------------------------------------------------------------------ *)

let e11_table cfg =
  let t =
    Table.create
      ~title:"E11: asynchronous impossibility (partitioned executions disagree)"
      ~columns:[ "|A|"; "|B|"; "A decides"; "B decides"; "disagree"; "in-flight" ]
  in
  pool_rows cfg t
    [ (2, 2); (3, 3); (4, 4); (2, 6); (5, 3) ]
    (fun (a, b) ->
      let v = Ubpa_semisync.Partition.asynchronous ~size_a:a ~size_b:b () in
      let uniq l = List.sort_uniq compare l in
      [
        [
          Table.cell_int a;
          Table.cell_int b;
          String.concat ","
            (List.map string_of_int (uniq v.Ubpa_semisync.Partition.outputs_a));
          String.concat ","
            (List.map string_of_int (uniq v.Ubpa_semisync.Partition.outputs_b));
          bool_cell v.Ubpa_semisync.Partition.disagreement;
          bool_cell v.Ubpa_semisync.Partition.undelivered_at_decision;
        ];
      ]);
  t

let e11 =
  tabular ~id:"E11" ~title:"async impossibility" e11_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E11.disagreement"
          "the partitioned asynchronous executions disagree (impossibility)"
          (all_yes "disagree");
        claim "E11.in-flight"
          "messages were still in flight at decision time (the \
           indistinguishability premise)"
          (all_yes "in-flight");
      ])

let e12_table cfg =
  let t =
    Table.create
      ~title:
        "E12: semi-synchronous impossibility (finite delay bound, still disagree)"
      ~columns:[ "delta"; "T_a"; "T_b"; "max delay"; "bounded"; "disagree" ]
  in
  pool_rows cfg t
    [ 8.; 16.; 64.; 256.; 1024. ]
    (fun delta ->
      match
        Ubpa_semisync.Partition.semi_synchronous ~size_a:3 ~size_b:3 ~delta ()
      with
      | v ->
          [
            [
              Table.cell_float ~digits:0 delta;
              Table.cell_float ~digits:1 v.Ubpa_semisync.Partition.decision_time_a;
              Table.cell_float ~digits:1 v.Ubpa_semisync.Partition.decision_time_b;
              Table.cell_float ~digits:1 v.Ubpa_semisync.Partition.max_delay;
              bool_cell (v.Ubpa_semisync.Partition.max_delay <= delta);
              bool_cell v.Ubpa_semisync.Partition.disagreement;
            ];
          ]
      | exception Invalid_argument _ ->
          [
            [
              Table.cell_float ~digits:0 delta;
              "-";
              "-";
              "-";
              "-";
              "premise fails";
            ];
          ]);
  t

let e12 =
  tabular ~id:"E12" ~title:"semi-sync impossibility" e12_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E12.bounded-delay"
          "every delivery respects the finite delay bound delta"
          (all_yes "bounded");
        claim "E12.disagreement"
          "executions still disagree under semi-synchrony (impossibility)"
          (all_yes "disagree");
      ])

(* ------------------------------------------------------------------ *)
(* E13: the attack matrix — every implemented adversary against the     *)
(* algorithm it targets, at full density f = (n-1)/3                    *)
(* ------------------------------------------------------------------ *)

let e13_table cfg =
  let t =
    Table.create
      ~title:
        "E13: attack matrix (n = 10, f = 3 unless noted) — key safety \
         property per adversary"
      ~columns:[ "algorithm"; "adversary"; "property"; "holds" ]
  in
  (* Each matrix entry is one independent run, so each becomes one pool
     cell producing its row; [pool_rows] keeps the written order. *)
  let row alg adv prop ok = [ alg; adv; prop; bool_cell ok ] in
  let n = 10 in
  let f = 3 in
  (* consensus *)
  let cons byz name () =
    let s =
      Scenarios.Consensus_int.run ~byz ~n_correct:(n - List.length byz)
        ~inputs:(fun i -> i mod 2)
        ()
    in
    row "consensus" name "agreement"
      (s.Scenarios.Consensus_int.all_terminated
      && s.Scenarios.Consensus_int.agreed)
  in
  (* binary consensus *)
  let bc byz name () =
    let s =
      Scenarios.Binary.run ~byz ~n_correct:(n - List.length byz)
        ~inputs:(fun i -> i mod 2 = 0)
        ()
    in
    row "binary-consensus" name "agreement+strong-validity"
      (s.Scenarios.Binary.all_terminated && s.Scenarios.Binary.agreed
      && s.Scenarios.Binary.valid)
  in
  (* approximate agreement *)
  let aa byz name () =
    let s =
      Scenarios.Aa.run ~byz ~n_correct:(n - List.length byz)
        ~inputs:(fun i -> float_of_int (10 * i))
        ()
    in
    row "approx-agreement" name "containment+halving"
      (s.Scenarios.Aa.within_range
      && s.Scenarios.Aa.contraction <= 0.5 +. 1e-9)
  in
  let module Ca = Scenarios.Consensus_int.Attacks in
  let cells =
    [
      cons (List.init f (fun _ -> Strategy.silent)) "silent";
      cons (List.init f (fun _ -> Ca.silent_member)) "silent-member";
      cons (List.init f (fun _ -> Ca.split_world 0 1)) "split-world";
      cons (List.init f (fun i -> Ca.stubborn i)) "stubborn";
      cons (List.init f (fun i -> Ca.half_stubborn i)) "half-stubborn";
      cons (List.init f (fun _ -> Ubpa_adversary.Generic.mirror)) "mirror";
      cons
        (List.init f (fun _ -> Ubpa_adversary.Generic.split_mirror))
        "split-mirror";
      cons (List.init f (fun _ -> Ubpa_adversary.Generic.spam)) "spam";
      cons
        (List.init f (fun _ -> Ubpa_adversary.Generic.random_mix))
        "random-mix";
      cons
        (List.init f (fun _ -> Ubpa_adversary.Generic.crash_after 6))
        "crash-after-6";
      cons
        (List.init f (fun _ -> Ubpa_adversary.Generic.replay ~delay:2))
        "replay-2";
      cons
        (List.init f (fun i ->
             Ubpa_adversary.Combinators.switch_at ~round:8
               Ubpa_adversary.Generic.mirror (Ca.split_world (i mod 2) 1)))
        "turncoat";
      bc
        (List.init f (fun _ -> Ubpa_adversary.Bc_attacks.split_world))
        "split-world";
      bc (List.init f (fun _ -> Ubpa_adversary.Bc_attacks.stubborn true)) "stubborn";
      aa
        (List.init f (fun _ ->
             Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6))
        "pull-apart";
      aa (List.init f (fun _ -> Ubpa_adversary.Aa_attacks.outlier 1e9)) "outlier";
      aa
        (List.init f (fun _ -> Ubpa_adversary.Aa_attacks.tracker ~offset:5.))
        "tracker";
      (* reliable broadcast *)
      (fun () ->
        let claimed = List.hd (Scenarios.make_ids ~seed:1L (n - f)) in
        let rb =
          Scenarios.Rb.run
            ~byz:
              (List.init f (fun _ ->
                   Scenarios.Rb.Attacks.forging_echoer "x" ~claimed))
            ~n_correct:(n - f) ~payload:"real" ()
        in
        row "reliable-broadcast" "forging-echoer" "unforgeability"
          (List.for_all
             (fun (_, entries) ->
               not (List.exists (fun (m, _, _) -> m = "x") entries))
             rb.Scenarios.Rb.accepted));
      (fun () ->
        let rb2 =
          Scenarios.Rb.run
            ~byz:
              (Scenarios.Rb.Attacks.equivocating_sender "m1" "m2"
              :: List.init (f - 1) (fun _ -> Strategy.silent))
            ~byz_sender:true ~n_correct:(n - f) ~payload:"m1" ()
        in
        row "reliable-broadcast" "equivocating-sender" "all-or-none"
          rb2.Scenarios.Rb.consistent_acceptance);
      (* rotor *)
      (fun () ->
        let rot =
          Scenarios.Rotor_int.run
            ~byz:
              (List.init f (fun i ->
                   Scenarios.Rotor_int.Attacks.staggered_announcer
                     ~fraction:(0.34 +. (0.08 *. float_of_int i))))
            ~n_correct:(n - f) ()
        in
        row "rotor" "staggered-announcer" "good round"
          (rot.Scenarios.Rotor_int.all_terminated
          && rot.Scenarios.Rotor_int.good_round_exists));
      (* parallel consensus *)
      (fun () ->
        let pc =
          Scenarios.Parallel_int.run
            ~byz:
              [
                Scenarios.Parallel_int.Attacks.ghost_instance ~id:99 1;
                Scenarios.Parallel_int.Attacks.split_instance ~id:1 0 1;
                Strategy.silent;
              ]
            ~n_correct:(n - 3)
            ~inputs:(fun _ -> [ (1, 7) ])
            ()
        in
        row "parallel-consensus" "ghost+split+silent" "pair-set agreement"
          (pc.Scenarios.Parallel_int.all_terminated
          && pc.Scenarios.Parallel_int.agreed));
      (* renaming *)
      (fun () ->
        let rn =
          Scenarios.Renaming_run.run
            ~byz:
              [
                Ubpa_adversary.Rename_attacks.partial_announcer ~fraction:0.5;
                Ubpa_adversary.Rename_attacks.vote_rusher;
                Ubpa_adversary.Rename_attacks.churning_candidate;
              ]
            ~n_correct:(n - 3) ()
        in
        row "renaming" "partial+rusher+churn" "consistent dense names"
          (rn.Scenarios.Renaming_run.all_terminated
          && rn.Scenarios.Renaming_run.consistent
          && rn.Scenarios.Renaming_run.names_are_dense));
    ]
  in
  pool_rows cfg t cells (fun cell -> [ cell () ]);
  t

let e13 =
  tabular ~id:"E13" ~title:"attack matrix" e13_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "E13.safety-matrix"
          "every implemented adversary fails to break its target property"
          (all_yes "holds");
      ])

let experiments =
  [ e1; e2; e2b; e3; e4; e5; e5b; e6; e7; e8; e8b; e9; e10; e11; e12; e13 ]
