open Ubpa_util
open Ubpa_sim
open Ubpa_harness
open Ubpa_scenarios
open Experiment

(* ------------------------------------------------------------------ *)
(* The networked runs RT1-RT3 tabulate                                  *)
(* ------------------------------------------------------------------ *)

(* What the tables read from one networked run, whatever the protocol. *)
type run = {
  rounds : int;
  decided : int;  (** Nodes that did not crash and produced an output. *)
  msgs : int;
  bits : int;
  frames : int;
  late : int;
  lost : int;
  dup : int;
  delayed : int;
  dead : int;  (** Presumed-dead marks. *)
  events : Trace.event list;
}

(* A run judged by Runtime_exec: its named checks and whether all held. *)
type verdict = {
  run : run;
  checks : (string * bool) list;
  ok : bool;
  survivors : int;
}

let passed v name =
  List.exists (fun (c, ok) -> String.equal c name && ok) v.checks

(* Decisions, decide rounds, executed rounds and trace equal the
   simulator's. *)
let sim_equal v =
  passed v "decisions" && passed v "decide-rounds" && passed v "rounds"
  && passed v "trace"

type transport = [ `Domains | `Socket ]

let transports : (string * transport) list =
  [ ("domains", `Domains); ("socket", `Socket) ]

(* One protocol's runs on [n] nodes (ids seeded 1, all correct). *)
module type RUNS = sig
  val name : string

  val compare : transport -> int -> (verdict, string) result
  (** Lockstep equivalence against the simulator. *)

  val with_faults :
    transport ->
    ?round_ms:float ->
    ?max_rounds:int ->
    spec:string ->
    int ->
    (verdict, string) result
  (** Graceful degradation under the fault plan [spec]. *)

  val plain : transport -> round_ms:float -> int -> (run, string) result
end

module Runs (X : sig
  module P : Protocol.S

  val name : string
  val max_rounds : int
  val input : int -> P.input

  val equal_output : P.output -> P.output -> bool
  (** The degradation agreement relation. *)
end) : RUNS = struct
  module E = Runtime_exec.Make (X.P)

  let name = X.name
  let ids n = Harness.make_ids ~seed:1L n
  let correct ids = List.mapi (fun i id -> (id, X.input i)) ids

  let summary (r : E.RT.run) =
    let inj = r.r_injected in
    {
      rounds = r.r_rounds;
      decided =
        List.length
          (List.filter
             (fun (s : E.RT.node_summary) ->
               s.ns_crashed_at = None && s.ns_output <> None)
             r.r_nodes);
      msgs = Ubpa_obs.Wire.messages r.r_wire;
      bits = Ubpa_obs.Wire.bits r.r_wire;
      frames = r.r_frames;
      late = r.r_late_frames;
      lost = inj.Ubpa_runtime.Transport_faulty.inj_lost;
      dup = inj.inj_dup;
      delayed = inj.inj_delayed;
      dead = List.length r.r_dead;
      events = r.r_events;
    }

  let checks = List.map (fun (c : E.check) -> (c.c_name, c.c_ok))

  let compare transport n =
    E.compare_with_sim ~transport ~max_rounds:X.max_rounds
      ~correct:(correct (ids n)) ()
    |> Result.map (fun (v : E.verdict) ->
           {
             run = summary v.v_run;
             checks = checks v.v_checks;
             ok = v.v_ok;
             survivors = n;
           })

  let with_faults transport ?(round_ms = 0.) ?(max_rounds = X.max_rounds)
      ~spec n =
    let ids = ids n in
    let faults =
      match Ubpa_faults.parse_spec ~ids spec with
      | Ok p -> p
      | Error e -> failwith ("RT2: bad fault spec " ^ spec ^ ": " ^ e)
    in
    E.run_with_faults ~equal_output:X.equal_output ~transport ~round_ms
      ~max_rounds ~faults ~seed:1L ~correct:(correct ids) ()
    |> Result.map (fun (fv : E.fault_verdict) ->
           {
             run = summary fv.f_run;
             checks = checks fv.f_checks;
             ok = fv.f_ok;
             survivors = List.length fv.f_survivors;
           })

  let plain transport ~round_ms n =
    E.RT.run ~transport ~round_ms ~max_rounds:X.max_rounds
      ~correct:(correct (ids n)) ()
    |> Result.map summary
end

module Rb_runs = Runs (struct
  module P = Scenarios.Rb.P

  let name = "rb"
  let max_rounds = 6
  let input i = if i = 0 then Some "m" else None

  (* RB's degradation agreement relation: consistency of the accepted
     streams — no sender accepted with two different payloads. *)
  let equal_output (a : P.output) (b : P.output) =
    List.for_all
      (fun (x : P.accepted) ->
        List.for_all
          (fun (y : P.accepted) ->
            (not (Node_id.equal x.sender y.sender))
            || String.equal x.payload y.payload)
          b)
      a
end)

module Consensus_runs = Runs (struct
  module P = Scenarios.Consensus_int.P

  let name = "consensus"
  let max_rounds = 40
  let input i = i mod 2
  let equal_output = ( = )
end)

let rb = (module Rb_runs : RUNS)
let consensus = (module Consensus_runs : RUNS)

(* ------------------------------------------------------------------ *)
(* RT1: networked runtime vs lockstep simulator                         *)
(* ------------------------------------------------------------------ *)

(* Eight fixed cells (cells do not shrink under --fast: the equivalences
   ARE the claims, like MC1/CX1): rb and consensus, each on both
   transports at n = 4 and 7, all-correct populations, rounds run flat
   out. Every cell runs the protocol on actual concurrent per-node
   processes, replays the recorded delivery schedule through the
   simulator's reference core, and runs a fresh simulator instance on the
   same population; the oracle / sim / wire columns are
   Runtime_exec.compare_with_sim's check verdicts. Byte counts are
   deliberately absent from the table — frame counts are deterministic,
   marshalled sizes are an implementation detail of the OCaml version.
   Needs OCaml 5; the sequential fallback renders error rows (CI only
   gates RT1 on the 5.x leg, next to the pool-backend assertions). *)
let rt1_table _ =
  let t =
    Table.create
      ~title:
        "RT1: networked runtime, per-node processes vs the lockstep \
         simulator as a trace-equivalence oracle (see docs/OBSERVABILITY.md)"
      ~columns:
        [
          "protocol";
          "transport";
          "n";
          "rounds";
          "decided";
          "msgs";
          "bits";
          "frames";
          "late";
          "oracle";
          "sim-equal";
          "wire-equal";
        ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (tname, transport) ->
          List.iter
            (fun (module R : RUNS) ->
              Table.add_row t
                (match R.compare transport n with
                | Error e ->
                    [ R.name; tname; Table.cell_int n; e; "-"; "-"; "-"; "-";
                      "-"; "no"; "no"; "no" ]
                | Ok v ->
                    [
                      R.name;
                      tname;
                      Table.cell_int n;
                      Table.cell_int v.run.rounds;
                      Table.cell_int v.run.decided;
                      Table.cell_int v.run.msgs;
                      Table.cell_int v.run.bits;
                      Table.cell_int v.run.frames;
                      Table.cell_int v.run.late;
                      bool_cell (passed v "oracle-replay");
                      bool_cell (sim_equal v);
                      bool_cell (passed v "wire");
                    ]))
            [ rb; consensus ])
        transports)
    [ 4; 7 ];
  t

let rt1 =
  tabular ~id:"RT1" ~title:"networked runtime oracle" rt1_table (fun o ->
      let open (val cells o : CELLS) in
      let pair_identical =
        (* For each (protocol, n), the domains and socket rows must agree
           on every behavioural column: the transport is a pure carrier. *)
        consistent
          ~key:(fun r -> (get r "protocol", get r "n"))
          ~behaviour:(fun r ->
            ( get r "rounds",
              get r "decided",
              get r "msgs",
              get r "bits",
              get r "frames" ))
      in
      [
        claim "RT1.oracle-equivalence"
          "every networked run's recorded delivery schedule replays \
           cleanly through the simulator's reference core (present sets, \
           inboxes, sends)"
          (all_yes "oracle");
        claim "RT1.sim-equivalence"
          "decisions, decide rounds, executed rounds and the full trace \
           event stream equal a fresh lockstep simulator run on the same \
           population"
          (all_yes "sim-equal");
        claim "RT1.wire-identical"
          "wire counters (totals and per-round/node/kind breakdowns) are \
           identical across runtime, replay oracle, and simulator"
          (all_yes "wire-equal");
        claim "RT1.all-correct-decide"
          "every node decides in every cell (all-correct populations)"
          (forall (fun r ->
               match (geti r "n", geti r "decided") with
               | Some n, Some d -> n = d
               | _ -> false));
        claim "RT1.wire-populated"
          "wire counters are populated on every cell (the transports \
           really carry the protocol's messages)"
          (forall (fun r ->
               match (geti r "msgs", geti r "bits") with
               | Some m, Some b -> m > 0 && b > 0
               | _ -> false));
        claim "RT1.no-late-frames"
          "on fault-free runs the marker fast path keeps every frame in \
           its delivery round"
          (forall (fun r -> get r "late" = "0"));
        claim "RT1.transport-identical"
          "domains and socket transports produce behaviourally identical \
           runs cell for cell"
          pair_identical;
      ])

(* ------------------------------------------------------------------ *)
(* RT2: fault-tolerant networked runtime                                *)
(* ------------------------------------------------------------------ *)

(* Sixteen fixed cells (8 fault configurations x both transports; cells
   do not shrink under --fast): fault-free cells re-run the full RT1
   exact-equivalence gate; within-budget cells (loss, delay, single
   crash) gate on graceful degradation (delivered-schedule oracle,
   monitors with victims excused, survivor agreement and decision); one
   deliberately beyond-budget cell (total receive-omission isolates a
   node) is EXPECTED to violate — its point is the committed,
   replayable counterexample trace (TRACE_RT2.jsonl). Every fault
   decision draws from per-directed-edge splitmix64 streams keyed by
   (seed, src, dst, direction), so all cells — including the injected
   counters — are byte-identical across transports, schedulers and
   --jobs. Crash cells need a real deadline (round_ms > 0): wall-clock
   "missing" counts are deliberately absent from the table; only the
   round-counted dead-peer marks are gated. *)
let rt2_run _ =
  let t =
    Table.create
      ~title:
        "RT2: fault-tolerant networked runtime — wire fault injection, \
         deadline-based rounds, graceful degradation under the delivered-\
         schedule oracle (see docs/OBSERVABILITY.md)"
      ~columns:
        [
          "protocol";
          "transport";
          "faults";
          "n";
          "rounds";
          "decided";
          "survivors";
          "late";
          "lost";
          "dup";
          "delayed";
          "dead";
          "oracle";
          "safety";
          "mode";
          "ok";
        ]
  in
  (* [judge] turns a verdict into the cell's (safety, ok). *)
  let add ~proto ~tname ~fname ~n ~mode ~judge = function
    | Error e ->
        Table.add_row t
          [ proto; tname; fname; Table.cell_int n; e; "-"; "-"; "-"; "-";
            "-"; "-"; "-"; "no"; "no"; "error"; "no" ]
    | Ok v ->
        let safety, ok = judge v in
        Table.add_row t
          [
            proto;
            tname;
            fname;
            Table.cell_int n;
            Table.cell_int v.run.rounds;
            Table.cell_int v.run.decided;
            Table.cell_int v.survivors;
            Table.cell_int v.run.late;
            Table.cell_int v.run.lost;
            Table.cell_int v.run.dup;
            Table.cell_int v.run.delayed;
            Table.cell_int v.run.dead;
            bool_cell (passed v "oracle-replay");
            bool_cell safety;
            mode;
            bool_cell ok;
          ]
  in
  (* -- fault-free cells: the exact RT1 gate, n = 5 -- *)
  List.iter
    (fun (tname, transport) ->
      List.iter
        (fun (module R : RUNS) ->
          add ~proto:R.name ~tname ~fname:"none" ~n:5 ~mode:"exact"
            ~judge:(fun v -> (sim_equal v && passed v "wire", v.ok))
            (R.compare transport 5))
        [ rb; consensus ])
    transports;
  (* -- faulty cells -- *)
  let violation_trace = ref "" in
  let cell (module R : RUNS) ~fname ~spec ~n ?round_ms ?max_rounds ~mode () =
    List.iter
      (fun (tname, transport) ->
        let result = R.with_faults transport ?round_ms ?max_rounds ~spec n in
        (* The beyond-budget counterexample trace ships with the
           artifact — the violation must stay replayable, like MC1's
           counterexamples. *)
        (match result with
        | Ok v when String.equal mode "violate" && String.equal tname "domains"
          ->
            violation_trace := Trace.to_jsonl (Trace.of_events v.run.events)
        | _ -> ());
        add ~proto:R.name ~tname ~fname ~n ~mode
          ~judge:(fun v ->
            let safety =
              passed v "monitors" && passed v "survivor-agreement"
              && passed v "crash-view"
            in
            ( safety,
              match mode with
              | "degrade" -> v.ok
              | _ -> (not v.ok) && safety && passed v "oracle-replay" ))
          result)
      transports
  in
  cell rb ~fname:"loss=0.10" ~spec:"loss=0.10" ~n:5 ~mode:"degrade" ();
  cell consensus ~fname:"loss=0.10" ~spec:"loss=0.10" ~n:5 ~mode:"degrade" ();
  cell consensus ~fname:"delay" ~spec:"delay:1@1..4=0.5x1" ~n:5
    ~mode:"degrade" ();
  cell rb ~fname:"crash-1" ~spec:"crash:2@2" ~n:5 ~round_ms:80.
    ~mode:"degrade" ();
  cell consensus ~fname:"crash-1" ~spec:"crash:1@3" ~n:5 ~round_ms:80.
    ~mode:"degrade" ();
  cell consensus ~fname:"isolate" ~spec:"recv-omit:1@1..12=1.0" ~n:4
    ~max_rounds:12 ~mode:"violate" ();
  {
    table = t;
    complexity = [];
    side_files = side_file "TRACE_RT2.jsonl" !violation_trace;
  }

let rt2 =
  {
    id = "RT2";
    title = "fault-tolerant runtime";
    run = rt2_run;
    claims =
      (fun _ o ->
        let open (val cells o : CELLS) in
        let rows_in mode = List.filter (fun r -> get r "mode" = mode) rows in
        let pair_identical =
          (* Same-fault cells must agree across transports on every
             behavioural column — including the injected-fault counters,
             which is the per-edge-stream determinism claim made real. *)
          consistent
            ~key:(fun r -> (get r "protocol", get r "faults", get r "n"))
            ~behaviour:(fun r ->
              ( get r "rounds",
                get r "decided",
                get r "survivors",
                (get r "late", get r "lost", get r "dup", get r "delayed"),
                (get r "dead", get r "oracle", get r "safety", get r "ok") ))
        in
        [
          claim "RT2.fault-free-exact"
            "fault-free cells still meet RT1's full exact-equivalence gate \
             (oracle replay, sim equality, wire accounting) — the fault \
             middleware and deadline synchronizer are behaviour-free when \
             idle"
            (rows_in "exact" <> []
            && List.for_all
                 (fun r ->
                   get r "ok" = "yes" && get r "oracle" = "yes"
                   && get r "safety" = "yes")
                 (rows_in "exact"));
          claim "RT2.delivered-oracle"
            "every cell's recorded delivered schedule — holes included — \
             replays cleanly through the oracle's sub-schedule mode"
            (all_yes "oracle");
          claim "RT2.within-budget-degrades"
            "every within-budget fault cell degrades gracefully on both \
             transports: monitors green, survivors all decide and agree"
            (rows_in "degrade" <> []
            && List.for_all (fun r -> get r "ok" = "yes") (rows_in "degrade"));
          claim "RT2.beyond-budget-violates"
            "the beyond-budget cell violates as expected — liveness fails \
             (a survivor never decides) while safety stays green"
            (rows_in "violate" <> []
            && List.for_all
                 (fun r ->
                   get r "ok" = "yes" && get r "safety" = "yes"
                   && match (geti r "decided", geti r "survivors") with
                      | Some d, Some s -> d < s
                      | _ -> false)
                 (rows_in "violate"));
          claim "RT2.late-frames-delay"
            "delay injection produces strictly positive late-frame counts \
             (the deadline synchronizer really drops stragglers)"
            (List.exists
               (fun r ->
                 get r "faults" = "delay"
                 && match geti r "late" with Some l -> l > 0 | None -> false)
               rows);
          claim "RT2.injection-live"
            "loss and delay cells inject a strictly positive number of \
             faults (the plans are not vacuous)"
            (List.for_all
               (fun r ->
                 match geti r "lost" with Some l -> l > 0 | None -> false)
               (List.filter (fun r -> get r "faults" = "loss=0.10") rows)
            && List.exists
                 (fun r ->
                   get r "faults" = "delay"
                   && match geti r "delayed" with
                      | Some d -> d > 0
                      | None -> false)
                 rows);
          claim "RT2.dead-peer-tracking"
            "in every crash cell each surviving node independently marks \
             the victim dead (dead marks = survivors)"
            (List.for_all
               (fun r ->
                 match (geti r "dead", geti r "survivors") with
                 | Some d, Some s -> d = s
                 | _ -> false)
               (List.filter (fun r -> get r "faults" = "crash-1") rows))
          ;
          claim "RT2.transport-identical"
            "domains and socket produce byte-identical behaviour and \
             injected-fault counters cell for cell"
            pair_identical;
          claim "RT2.violation-trace-committed"
            "the beyond-budget counterexample trace is captured for the \
             committed artifact (TRACE_RT2.jsonl)"
            (List.mem_assoc "TRACE_RT2.jsonl" o.side_files);
        ]);
  }

(* ------------------------------------------------------------------ *)
(* RT3: runtime latency/throughput — the performance story of RT1/RT2   *)
(* ------------------------------------------------------------------ *)

(* ROADMAP item 1's remainder: RT1/RT2 prove the networked runtime is
   *correct* (trace-equivalent to the simulator, graceful under
   faults); RT3 measures how *fast* it is. Fixed cells (no --fast
   shrink, like RT1): per transport, rb and consensus run flat out
   (round_ms = 0, marker fast path only), plus consensus under 60ms and
   150ms round-deadline floors. Frames/late/rounds/decided are
   deterministic and gated cell-for-cell across transports; elapsed,
   frames/s and avg-round-ms are wall-clock (unit-suffixed, exempt from
   exact diff and metric comparison). The under-deadline column is the
   measured-round-time-vs-floor comparison: the deadline synchronizer's
   marker fast path advances as soon as all markers arrive, so even
   floored rounds finish well under the floor — gated only on the
   roomy 150ms floor so a loaded CI host cannot flake it. *)
let rt3_table _ =
  let t =
    Table.create
      ~title:
        "RT3: networked runtime latency/throughput — frames/sec per \
         transport and measured round time vs the --round-ms floor \
         (timing cells are wall-clock and exempt; rounds/decided/frames/\
         late are deterministic and gated)"
      ~columns:
        [
          "protocol"; "transport"; "n"; "round-ms"; "rounds"; "decided";
          "frames"; "late"; "elapsed"; "frames/s"; "avg-round-ms";
          "under-deadline";
        ]
  in
  let n = 5 in
  List.iter
    (fun (tname, transport) ->
      List.iter
        (fun ((module R : RUNS), round_ms) ->
          let floor =
            if round_ms > 0. then Printf.sprintf "%.0f" round_ms else "0"
          in
          let t0 = Clock.now_ms () in
          let result = R.plain transport ~round_ms n in
          let elapsed = Clock.elapsed_ms ~since:t0 in
          Table.add_row t
            (match result with
            | Error e ->
                [ R.name; tname; Table.cell_int n; floor; e; "-"; "-"; "-";
                  "-"; "-"; "-"; "no" ]
            | Ok r ->
                let avg = elapsed /. float_of_int (max r.rounds 1) in
                [
                  R.name;
                  tname;
                  Table.cell_int n;
                  floor;
                  Table.cell_int r.rounds;
                  Table.cell_int r.decided;
                  Table.cell_int r.frames;
                  Table.cell_int r.late;
                  Printf.sprintf "%.1fms" elapsed;
                  Printf.sprintf "%.0f/s"
                    (float_of_int r.frames
                    /. (Float.max elapsed 1e-3 /. 1000.));
                  Printf.sprintf "%.1fms" avg;
                  (if round_ms > 0. then bool_cell (avg <= round_ms) else "-");
                ]))
        [ (rb, 0.); (consensus, 0.); (consensus, 60.); (consensus, 150.) ])
    transports;
  t

let rt3 =
  tabular ~id:"RT3" ~title:"runtime latency/throughput" rt3_table (fun o ->
      let open (val cells o : CELLS) in
      let pair_identical =
        (* Same-cell rows must agree across transports on every
           deterministic column; timing columns are exempt. *)
        consistent
          ~key:(fun r -> (get r "protocol", get r "round-ms", get r "n"))
          ~behaviour:(fun r ->
            (get r "rounds", get r "decided", get r "frames", get r "late"))
      in
      [
        claim "RT3.populated"
          "every cell runs the protocol over a real transport (frames > 0)"
          (forall (fun r ->
               match geti r "frames" with Some f -> f > 0 | None -> false));
        claim "RT3.all-decide"
          "every node decides in every cell (all-correct populations)"
          (forall (fun r ->
               match (geti r "n", geti r "decided") with
               | Some n, Some d -> n = d
               | _ -> false));
        claim "RT3.no-late-frames"
          "the marker fast path keeps every frame in its round at every \
           deadline floor"
          (forall (fun r -> get r "late" = "0"));
        claim "RT3.under-deadline"
          "with the 150ms round floor the measured average round time \
           stays under the floor — rounds advance on markers, not on \
           deadline expiry"
          (let floored =
             List.filter (fun r -> get r "round-ms" = "150") rows
           in
           floored <> []
           && List.for_all (fun r -> get r "under-deadline" = "yes") floored);
        claim "RT3.transport-identical"
          "domains and socket transports produce identical rounds, \
           decisions, frame and late counts cell for cell"
          pair_identical;
      ])

let experiments = [ rt1; rt2; rt3 ]
