open Ubpa_util
open Ubpa_sim
open Ubpa_harness
open Ubpa_scenarios
open Experiment

(* ------------------------------------------------------------------ *)
(* PERF2: the determinism gate for the multicore sweep executor         *)
(* ------------------------------------------------------------------ *)

(* Every sub-sweep below is seed-deterministic and timing-free. Each is
   re-run at jobs = 1, 2 and 8 regardless of --jobs or --fast, and each
   row carries the FNV-1a digest of its cell results in merge order, so
   the finished table is byte-identical on any machine, at any --jobs,
   under either pool backend. It is committed to bench/baseline, which
   makes `bench_diff --exact` (and the CI claim gate) turn any ordering
   or determinism regression in the executor into a hard failure. *)

let perf2_table _ =
  let t =
    Table.create
      ~title:
        "PERF2: multicore sweep executor determinism — fixed sub-sweeps \
         re-run at jobs=1/2/8 must merge cell-for-cell identically \
         (digests independent of --fast, --jobs, machine, pool backend)"
      ~columns:[ "sweep"; "jobs"; "cells"; "digest"; "match" ]
  in
  let sweeps =
    [
      ( "pool-map",
        fun ~jobs ->
          Pool.map ~jobs
            (fun i -> Printf.sprintf "%d:%d" i ((i * i * 31) + 7))
            (List.init 64 Fun.id) );
      ( "consensus-f",
        fun ~jobs ->
          Pool.map ~jobs
            (fun (f, seed) ->
              let s =
                Scenarios.Consensus_int.run ~seed
                  ~byz:
                    (List.init f (fun _ ->
                         Scenarios.Consensus_int.Attacks.split_world 0 1))
                  ~n_correct:((2 * f) + 1)
                  ~inputs:(fun i -> i mod 2)
                  ()
              in
              Printf.sprintf "f=%d seed=%Ld rounds=%d agreed=%b msgs=%d" f
                seed
                (List.fold_left max 0
                   s.Scenarios.Consensus_int.decision_rounds)
                s.Scenarios.Consensus_int.agreed
                s.Scenarios.Consensus_int.delivered_msgs)
            (List.concat_map
               (fun f -> List.map (fun seed -> (f, seed)) [ 3L; 11L ])
               [ 1; 2 ]) );
      ( "rb-n",
        fun ~jobs ->
          Pool.map ~jobs
            (fun n ->
              let s = Scenarios.Rb.run ~n_correct:n ~payload:"m" () in
              Printf.sprintf "n=%d acc=%b cons=%b r=%d-%d msgs=%d" n
                s.Scenarios.Rb.all_accepted_sender_payload
                s.Scenarios.Rb.consistent_acceptance
                s.Scenarios.Rb.min_accept_round
                s.Scenarios.Rb.max_accept_round s.Scenarios.Rb.delivered_msgs)
            [ 4; 7; 13 ] );
      ( "chaos-mini",
        fun ~jobs ->
          let rows, records =
            Chaos_runs.sweep ~jobs ~protocols:[ "rb" ] ~budgets:[ 0; 1 ]
              ~seeds_per_budget:2 ()
          in
          List.map
            (fun (r : Chaos.row) ->
              Printf.sprintf "%s b=%d green=%d violated=%d" r.Chaos.protocol
                r.Chaos.budget r.Chaos.green r.Chaos.violated)
            rows
          @ List.map
              (fun (rc : Chaos_runs.run_record) ->
                Printf.sprintf "%s seed=%Ld b=%d v=%b"
                  rc.Chaos_runs.protocol rc.Chaos_runs.seed
                  rc.Chaos_runs.budget
                  (rc.Chaos_runs.violation <> None))
              records );
    ]
  in
  List.iter
    (fun (name, run) ->
      let reference = ref "" in
      List.iter
        (fun jobs ->
          let cells = run ~jobs in
          let digest = digest_cell (fnv1a (String.concat "\n" cells)) in
          if jobs = 1 then reference := digest;
          Table.add_row t
            [
              name;
              Table.cell_int jobs;
              Table.cell_int (List.length cells);
              digest;
              bool_cell (String.equal digest !reference);
            ])
        [ 1; 2; 8 ])
    sweeps;
  t

let perf2 =
  tabular ~id:"PERF2" ~title:"sweep executor determinism" perf2_table (fun o ->
      let open (val cells o : CELLS) in
      [
        claim "PERF2.deterministic-across-jobs"
          "every sub-sweep digest at jobs=2 and jobs=8 equals the jobs=1 \
           digest — parallel tables are cell-for-cell identical to serial \
           ones"
          (all_yes "match"
          && consistent
               ~key:(fun r -> get r "sweep")
               ~behaviour:(fun r -> (get r "cells", get r "digest"))
          && List.exists (fun r -> geti r "jobs" = Some 8) rows);
        claim "PERF2.order-preserved"
          "the synthetic pool-map sweep preserves submission order at \
           every jobs level"
          (let pm = List.filter (fun r -> get r "sweep" = "pool-map") rows in
           pm <> [] && List.for_all (fun r -> get r "match" = "yes") pm);
      ])

(* ------------------------------------------------------------------ *)
(* SCALE: engine v3 arena core at n up to 10,000                        *)
(* ------------------------------------------------------------------ *)

(* The existing experiments stop around n=301 because every workload is
   Ω(n²) deliveries. SCALE sweeps the arena core far past that:
   single-sender RB to n = 10,000 and all-correct consensus to n = 301,
   with wire accounting on (each broadcast is charged once, so the
   observer costs no fan-out). At every overlap size the identical
   workload also runs with every round re-routed through the reference
   core (Harness.check_reference); that "reference" row reports the
   oracle's round and delivered counts, and the run's digest only if no
   round diverged. Both rows must match — the identity claim that lets
   the larger arena-only rows be trusted. The minor-w/msg column is GC
   minor words allocated per delivered message; the arena core's whole
   point is that this stays flat as n explodes (the inbox lists the
   protocol reads are the only steady-state allocation). Unit suffixes
   keep the alloc/timing cells out of metric comparison; bench_diff
   additionally exempts them from exact mode. *)

module Rbs = Unknown_ba.Reliable_broadcast.Make (Unknown_ba.Value.String)
module Rbs_h = Harness.Make (Rbs)
module Cint = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module Cint_h = Harness.Make (Cint)

(* Single-sender RB runs a fixed number of rounds at every n. *)
let scale_rb_rounds = 4

(* Serialize every node's accepted list (sorted by node id) into a
   position-independent FNV-1a digest: equal digests mean byte-identical
   outputs, not just equal counts. *)
let rb_output_digest net =
  let buf = Buffer.create 4096 in
  let reports =
    List.sort
      (fun (a : Rbs_h.Net.node_report) (b : Rbs_h.Net.node_report) ->
        Node_id.compare a.id b.id)
      (Rbs_h.Net.reports net)
  in
  List.iter
    (fun (r : Rbs_h.Net.node_report) ->
      Buffer.add_string buf (string_of_int (Node_id.to_int r.id));
      Buffer.add_char buf '[';
      (match r.last_output with
      | None -> ()
      | Some out ->
          List.iter
            (fun (a : Rbs.accepted) ->
              Buffer.add_string buf
                (Printf.sprintf "(%s,%d,%d)" a.Rbs.payload
                   (Node_id.to_int a.Rbs.sender)
                   a.Rbs.accepted_round))
            out);
      Buffer.add_char buf ']')
    reports;
  fnv1a (Buffer.contents buf)

(* The row an overlap run reports: the oracle's view of the run when
   [oracle] is given, the run's own otherwise. *)
let scale_row ?oracle ~rounds ~delivered ~digest ms words =
  match oracle with
  | None -> (rounds, delivered, digest, ms, words)
  | Some r ->
      ( Harness.Reference.rounds r,
        Harness.Reference.delivered r,
        (match Harness.Reference.divergence r with
        | None -> digest
        | Some what -> fnv1a what),
        ms,
        words )

let scale_rb_run ?oracle ~n () =
  let ids = Scenarios.make_ids ~seed:98L n in
  let correct =
    List.mapi (fun i id -> (id, if i = 0 then Some "m" else None)) ids
  in
  let net = Rbs_h.create ~correct ~byzantine:[] () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ms () in
  for _ = 1 to scale_rb_rounds do
    Rbs_h.Net.step_round net;
    Option.iter (fun r -> Rbs_h.check_reference r net) oracle
  done;
  let elapsed = Clock.elapsed_ms ~since:t0 in
  let words = Gc.minor_words () -. w0 in
  scale_row ?oracle ~rounds:scale_rb_rounds
    ~delivered:(Metrics.delivered (Rbs_h.Net.metrics net))
    ~digest:(rb_output_digest net) elapsed words

let consensus_output_digest net =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : Cint_h.Net.node_report) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s:%s;" (Node_id.to_int r.id)
           (match r.last_output with
           | Some v -> string_of_int v
           | None -> "-")
           (match r.first_output_round with
           | Some v -> string_of_int v
           | None -> "-")))
    (List.sort
       (fun (a : Cint_h.Net.node_report) (b : Cint_h.Net.node_report) ->
         Node_id.compare a.id b.id)
       (Cint_h.Net.reports net));
  fnv1a (Buffer.contents buf)

let scale_consensus_run ?oracle ~n () =
  let ids = Scenarios.make_ids ~seed:99L n in
  let correct = List.mapi (fun i id -> (id, i mod 2)) ids in
  let net = Cint_h.create ~correct ~byzantine:[] () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ms () in
  while (not (Cint_h.Net.all_halted net)) && Cint_h.Net.round net < 100 do
    Cint_h.Net.step_round net;
    Option.iter (fun r -> Cint_h.check_reference r net) oracle
  done;
  let elapsed = Clock.elapsed_ms ~since:t0 in
  let words = Gc.minor_words () -. w0 in
  scale_row ?oracle ~rounds:(Cint_h.Net.round net)
    ~delivered:(Metrics.delivered (Cint_h.Net.metrics net))
    ~digest:(consensus_output_digest net) elapsed words

let scale_table cfg =
  let t =
    Table.create
      ~title:
        "SCALE: arena delivery at large n — single-sender RB to n=10,000 \
         and all-correct consensus to n=301 (55M deliveries), wire \
         accounting on; reference-oracle identity gated at every overlap \
         size, minor-w/msg is the flat-allocation evidence (alloc/timing \
         cells are unit-suffixed and exempt from exact diff)"
      ~columns:
        [
          "workload"; "n"; "engine"; "rounds"; "delivered"; "digest";
          "minor-w/msg"; "elapsed"; "msgs/s";
        ]
  in
  let add ~workload ~n ~engine (rounds, delivered, digest, ms, words) =
    Table.add_row t
      [
        workload;
        Table.cell_int n;
        engine;
        Table.cell_int rounds;
        Table.cell_int delivered;
        digest_cell digest;
        Printf.sprintf "%.1fw" (words /. float_of_int (max delivered 1));
        Printf.sprintf "%.1fms" ms;
        Printf.sprintf "%.0f/s"
          (float_of_int delivered /. (Float.max ms 1e-3 /. 1000.));
      ]
  in
  let sweep ~workload ~run ~overlap ~large =
    List.iter
      (fun n ->
        let oracle = Harness.Reference.create () in
        add ~workload ~n ~engine:"reference" (run ?oracle:(Some oracle) ~n ());
        add ~workload ~n ~engine:"arena" (run ?oracle:None ~n ()))
      overlap;
    List.iter
      (fun n -> add ~workload ~n ~engine:"arena" (run ?oracle:None ~n ()))
      large
  in
  sweep ~workload:"rb-1sender" ~run:scale_rb_run ~overlap:[ 61; 301 ]
    ~large:(if cfg.fast then [] else [ 1_001; 3_001; 10_000 ]);
  (* Consensus deliveries grow ~n^3 (rotor candidate echoes scale with
     n), so the large band stops at n=301 — already 55M deliveries; the
     n^2 RB workload is the one that carries the population to 10,000.
     The reference core's duplicate scan is linear in inbox length, so
     its consensus overlap stops at n=31: at n=61 it alone takes ~7 s. *)
  sweep ~workload:"consensus" ~run:scale_consensus_run ~overlap:[ 31 ]
    ~large:(if cfg.fast then [ 61 ] else [ 61; 301 ]);
  t

let scale =
  {
    id = "SCALE";
    title = "engine v3 at scale";
    run = (fun cfg -> table_only (scale_table cfg));
    claims =
      (fun cfg o ->
        let open (val cells o : CELLS) in
        (* Unit-suffixed cells ("12.3w", "4.1ms") parse by numeric
           prefix. *)
        let numeric_prefix s =
          let len = String.length s in
          let rec go i =
            if
              i < len
              &&
              match s.[i] with
              | '0' .. '9' | '.' | '-' | '+' | 'e' -> true
              | _ -> false
            then go (i + 1)
            else i
          in
          float_of_string_opt (String.sub s 0 (go 0))
        in
        let key r = (get r "workload", get r "n") in
        let references =
          List.filter (fun r -> get r "engine" = "reference") rows
        in
        let workloads rs =
          List.sort_uniq compare (List.map (fun r -> get r "workload") rs)
        in
        let arena_rb =
          List.filter
            (fun r ->
              get r "engine" = "arena" && get r "workload" = "rb-1sender")
            rows
        in
        let n_of r = Option.value ~default:0 (geti r "n") in
        let arena_rb_max =
          List.fold_left (fun acc r -> max acc (n_of r)) 0 arena_rb
        in
        let arena_rb_min =
          List.fold_left (fun acc r -> min acc (n_of r)) max_int arena_rb
        in
        let wpm n =
          List.find_map
            (fun r ->
              if n_of r = n then numeric_prefix (get r "minor-w/msg") else None)
            arena_rb
        in
        [
          claim "SCALE.identical-deliveries"
            "at every overlap size the arena core's digest, delivered count \
             and round count are identical to the reference oracle's (every \
             round re-routed through the reference core, no divergence) — \
             the identity gate that certifies the arena-only rows"
            (references <> []
            && workloads references = workloads rows
            && List.for_all
                 (fun r ->
                   List.exists
                     (fun a -> get a "engine" = "arena" && key a = key r)
                     rows)
                 references
            && consistent ~key ~behaviour:(fun r ->
                   (get r "digest", get r "delivered", get r "rounds")));
          claim "SCALE.alloc-flat"
            "the arena core's minor words per delivered message at the \
             largest swept RB n stay within 4x the smallest swept n — \
             per-message cost does not grow with the population"
            (arena_rb <> []
            &&
            match (wpm arena_rb_min, wpm arena_rb_max) with
            | Some lo, Some hi -> hi <= Float.max (4. *. lo) 16.
            | _ -> false);
          claim "SCALE.reaches-target"
            "the RB sweep completes under the arena core at the target \
             population (n=10,000; n=301 in --fast smoke) with every row \
             delivering messages"
            (arena_rb_max >= (if cfg.fast then 301 else 10_000)
            && forall (fun r ->
                   match geti r "delivered" with
                   | Some d -> d > 0
                   | None -> false));
        ]);
  }

(* ------------------------------------------------------------------ *)
(* R1: chaos sweep — graceful degradation under benign faults          *)
(* ------------------------------------------------------------------ *)

let r1_table cfg =
  let t =
    Table.create
      ~title:
        "R1: seeded chaos sweep, monitor verdicts per protocol and fault \
         budget (n=11 with one Byzantine mirror, f=3; inside the envelope \
         — crash/omission-only and budget+byz <= f — every monitor must \
         stay green)"
      ~columns:
        [
          "protocol"; "budget"; "byz"; "n"; "envelope"; "runs"; "green";
          "violated"; "reported"; "sample violation";
        ]
  in
  (* The sweep size is the claim (>= 50 within-envelope schedules), so it
     is fixed regardless of --fast. *)
  let rows, _records = Chaos_runs.sweep ?jobs:cfg.jobs () in
  List.iter
    (fun (r : Chaos.row) ->
      Table.add_row t
        [
          r.protocol;
          Table.cell_int r.budget;
          Table.cell_int r.byz;
          Table.cell_int r.n;
          bool_cell r.within;
          Table.cell_int r.runs;
          Table.cell_int r.green;
          Table.cell_int r.violated;
          Table.cell_int r.reported;
          r.sample;
        ])
    rows;
  t

let r1 =
  tabular ~id:"R1" ~title:"chaos sweep" r1_table (fun o ->
      let open (val cells o : CELLS) in
      let withins = List.filter (fun r -> get r "envelope" = "yes") rows in
      [
        claim "R1.envelope-green"
          "inside the proven envelope (benign crash/omission-only, \
           budget + byzantine <= f) every monitor stays green in every \
           run"
          (withins <> []
          && List.for_all
               (fun r ->
                 geti r "violated" = Some 0 && geti r "green" = geti r "runs")
               withins);
        claim "R1.sweep-size"
          "the within-envelope sweep covers at least 50 randomized fault \
           schedules"
          (List.fold_left
             (fun acc r -> acc + Option.value ~default:0 (geti r "runs"))
             0 withins
          >= 50);
        claim "R1.first-violation-reported"
          "every violated run produced a first-violation report (the \
           monitors report, they do not assert)"
          (forall (fun r -> geti r "reported" = geti r "violated"));
        claim "R1.degradation-observed"
          "pushing past the envelope degrades: at least one over-budget \
           row has a reported violation"
          (List.exists
             (fun r ->
               get r "envelope" = "no"
               &&
               match geti r "violated" with Some v -> v >= 1 | None -> false)
             rows);
      ])

let experiments = [ perf2; scale; r1 ]
