(* The four workloads, each runnable untraced (library defaults, public
   entry points, end-to-end numbers) or traced (the same run with every
   layer wrapped from outside, per-layer numbers). A traced run must
   reproduce the untraced run's digest. *)

open Ubpa_util
open Ubpa_sim
open Ubpa_scenarios
module Harness = Ubpa_harness.Harness
module Chaos = Ubpa_harness.Chaos
module Wire = Ubpa_obs.Wire
module M = Ubpa_monitor

let now = Layers.now

type tamper = No_tamper | Tamper_digest | Tamper_output

type instance = {
  setup_s : float;  (** median over [setup_reps] set-ups *)
  wall_s : float;
  work : int;  (** deliveries, or distinct configurations on check-rb *)
  digest : string;
  counts : (string * int) list;
  verdict : Gate.verdict;
  gc : (string * float) list;  (** allocation over the measured run *)
  layers : (string * float) list;  (** traced runs only *)
  wire_replay_equal : bool option;
      (** traced fault-free simulator runs: replayed wire = engine wire *)
}

let setup_reps = 9

(* Set the workload up [setup_reps] times and report the median. Each
   sample times a batch of [batch] set-ups, sized per workload to last a
   few milliseconds so the clock's microsecond resolution does not show;
   the count is fixed so every process allocates the same before its
   run. The spec handed back is the first one built, never reused. *)
let timed_setup ~batch prepare =
  let spec = prepare () in
  let times =
    Array.init setup_reps (fun _ ->
        let t0 = now () in
        for _ = 1 to batch do
          ignore (prepare ())
        done;
        (now () -. t0) /. float_of_int batch)
  in
  Array.sort Float.compare times;
  (spec, times.(setup_reps / 2))

let opt_int = function None -> "-" | Some i -> string_of_int i

let gc_delta (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  [
    ("minor_words", g1.minor_words -. g0.minor_words);
    ("promoted_words", g1.promoted_words -. g0.promoted_words);
    ( "major_collections",
      float_of_int (g1.major_collections - g0.major_collections) );
    ( "top_heap_mb",
      float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
  ]

(* The measured run and its allocation. A full major collection first
   leaves every run the same starting heap. *)
let measure run =
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let r = run () in
  (r, gc_delta gc0)

(* Every workload reports every layer; a layer a workload never enters
   reads 0. *)
let check_zeros =
  List.map
    (fun k -> (k, 0.))
    [
      "check.explored"; "check.distinct"; "check.dedup_hits"; "check.sym_skips";
      "check.frontier_peak"; "check.dedup_ratio"; "check.state_key_s";
      "check.copy_state_s"; "check.engine_s";
    ]

(* The protocol step, wrapped on every workload: the simulator's rounds
   and the checker's branches both drive the same [P.step]. *)
let step_layers ~wall =
  let c = Layers.c in
  let per a b = if b = 0 then 0. else a /. float_of_int b in
  [
    ("step.s", c.step_s);
    ("step.share", c.step_s /. wall);
    ("step.calls", float_of_int c.step_calls);
    ("step.inbox_msgs", float_of_int c.step_inbox);
    ("step.sends", float_of_int c.step_sends);
    ("step.ns_per_inbox_msg", 1e9 *. per c.step_s c.step_inbox);
  ]

let sim_zeros =
  List.map
    (fun k -> (k, 0.))
    [
      "network.self_s"; "network.share"; "network.ns_per_delivery";
      "network.deliveries"; "network.sends"; "network.rounds"; "adversary.s";
      "adversary.share"; "adversary.calls"; "adversary.sends"; "wire.msgs";
      "wire.bits"; "wire.replay_s"; "wire.ns_per_record"; "trace.events";
      "trace.jsonl_bytes"; "trace.export_s"; "monitor.s";
      "monitor.observations"; "monitor.events";
    ]

(* ------------------------------------------------------------------ *)
(* Simulator workloads                                                 *)
(* ------------------------------------------------------------------ *)

type 'o node = {
  id : Node_id.t;
  first_output_round : int option;
  halted_at : int option;
  down_since : int option;
  output : 'o option;
}

module Sim (P : Protocol.S) = struct
  module H = Harness.Make (P)
  module T = Layers.Timed (P)
  module TH = Harness.Make (T)

  type spec = {
    seed : int64;
    correct : (Node_id.t * P.input) list;
    byzantine : (Node_id.t * P.message Strategy.t) list;
    faults : Ubpa_faults.plan option;
    classify : (P.message -> string) option;
    max_rounds : int;
    stop : (P.output option list -> bool) option;
    monitor : P.output M.t option;
  }

  type run = {
    finished : string;
    rounds : int;
    delivered : int;
    wire : Wire.t;
    nodes : P.output node list;
    violations : string list;
  }

  let finished_tag = function
    | `All_halted -> "all-halted"
    | `Max_rounds_reached _ -> "max-rounds"
    | `No_correct_nodes -> "no-correct-nodes"
    | `Stopped -> "stopped"

  let violations = function
    | None -> []
    | Some m -> List.map (Fmt.str "%a" M.pp_violation) (M.violations m)

  let untraced (s : spec) =
    let stop =
      Option.map
        (fun f net ->
          f (List.map (fun (r : H.Net.node_report) -> r.last_output)
               (H.Net.reports net)))
        s.stop
    in
    let t0 = now () in
    let o =
      H.execute ~seed:s.seed ?faults:s.faults ?classify:s.classify
        ~max_rounds:s.max_rounds ?stop ?monitor:s.monitor ~correct:s.correct
        ~byzantine:s.byzantine ()
    in
    let wall = now () -. t0 in
    let nodes =
      List.map
        (fun (r : H.Net.node_report) ->
          {
            id = r.id;
            first_output_round = r.first_output_round;
            halted_at = r.halted_at;
            down_since = r.down_since;
            output = r.last_output;
          })
        o.H.reports
    in
    ( wall,
      {
        finished = finished_tag o.H.finished;
        rounds = o.H.rounds;
        delivered = o.H.delivered_msgs;
        wire = H.Net.wire o.H.net;
        nodes;
        violations = violations s.monitor;
      } )

  (* The same run through the wrapped protocol and strategies, driven by
     a hand-written loop with the semantics of [Harness.execute] (run to
     halt, or until [stop]; with a monitor, an observation after every
     round and the monitor subscribed to an enabled trace). *)
  let traced_run (s : spec) =
    Layers.reset ();
    Layers.Capture.clear T.delivered;
    let byzantine =
      List.map
        (fun (id, st) -> (id, Layers.strategy T.delivered st))
        s.byzantine
    in
    let trace = Option.map (fun _ -> Trace.create ()) s.monitor in
    let t0 = now () in
    let net =
      TH.create ~seed:s.seed ?faults:s.faults ?trace ?classify:s.classify
        ~correct:s.correct ~byzantine ()
    in
    Option.iter
      (fun tr ->
        Layers.count_events tr;
        Option.iter
          (fun m -> Trace.subscribe tr (Layers.timed_observe_event m))
          s.monitor)
      trace;
    let round_s = ref 0. in
    let finished () =
      match s.stop with
      | None -> if TH.Net.all_halted net then Some `All_halted else None
      | Some f ->
          if
            f (List.map (fun (r : TH.Net.node_report) -> r.last_output)
                 (TH.Net.reports net))
          then Some `Stopped
          else None
    in
    let rec go () =
      match finished () with
      | Some f -> f
      | None ->
          if TH.Net.round net >= s.max_rounds then
            `Max_rounds_reached (TH.Net.stalled net)
          else begin
            let t = now () in
            TH.Net.step_round net;
            round_s := !round_s +. (now () -. t);
            Option.iter
              (fun m -> Layers.timed_observe (fun () -> TH.observe m net))
              s.monitor;
            go ()
          end
    in
    let finished = go () in
    let wall = now () -. t0 in
    let nodes =
      List.map
        (fun (r : TH.Net.node_report) ->
          {
            id = r.id;
            first_output_round = r.first_output_round;
            halted_at = r.halted_at;
            down_since = r.down_since;
            output = r.last_output;
          })
        (TH.Net.reports net)
    in
    let metrics = TH.Net.metrics net in
    let run =
      {
        finished = finished_tag finished;
        rounds = TH.Net.round net;
        delivered = Metrics.delivered metrics;
        wire = TH.Net.wire net;
        nodes;
        violations = violations s.monitor;
      }
    in
    (* Wire layer: the captured multiset replayed through the same hook
       the engine runs per delivery. *)
    let kind_of = match s.classify with Some f -> f | None -> fun _ -> "msg" in
    let replay = Wire.create () in
    let t = now () in
    Layers.Capture.iter T.delivered (fun ~round ~sender ~recipient m ->
        Wire.record replay ~round ~sender ~recipient ~kind:(kind_of m)
          ~bits:(P.encoded_bits m));
    let replay_s = now () -. t in
    Layers.Capture.clear T.delivered;
    let replay_equal = Wire.equal replay run.wire in
    (* Trace layer: export the whole trace once. *)
    let export_s, jsonl_bytes =
      match trace with
      | None -> (0., 0)
      | Some tr ->
          let t = now () in
          let bytes = String.length (Trace.to_jsonl tr) in
          (now () -. t, bytes)
    in
    let c = Layers.c in
    let network_s =
      !round_s -. c.step_s -. c.adv_s -. c.monitor_event_s -. c.capture_s
    in
    let per a b = if b = 0 then 0. else a /. float_of_int b in
    let deliveries = run.delivered in
    let layers =
      [
        ("network.self_s", network_s);
        ("network.share", network_s /. wall);
        ("network.ns_per_delivery", 1e9 *. per network_s deliveries);
        ("network.deliveries", float_of_int deliveries);
        ( "network.sends",
          float_of_int
            (Metrics.sends_correct metrics + Metrics.sends_byzantine metrics) );
        ("network.rounds", float_of_int run.rounds);
      ]
      @ step_layers ~wall
      @ [
        ("adversary.s", c.adv_s);
        ("adversary.share", c.adv_s /. wall);
        ("adversary.calls", float_of_int c.adv_calls);
        ("adversary.sends", float_of_int c.adv_sends);
        ("wire.msgs", float_of_int (Wire.messages replay));
        ("wire.bits", float_of_int (Wire.bits replay));
        ("wire.replay_s", replay_s);
        ("wire.ns_per_record", 1e9 *. per replay_s (Wire.messages replay));
        ("trace.events", float_of_int c.trace_events);
        ("trace.jsonl_bytes", float_of_int jsonl_bytes);
        ("trace.export_s", export_s);
        ("monitor.s", c.monitor_s);
        ("monitor.observations", float_of_int c.monitor_observations);
        ("monitor.events", float_of_int c.monitor_events);
      ]
    in
    (wall, run, layers, replay_equal)

  let counts (r : run) =
    [
      ("rounds", r.rounds);
      ("deliveries", r.delivered);
      ("wire_msgs", Wire.messages r.wire);
      ("wire_bits", Wire.bits r.wire);
    ]

  let digest ~show (r : run) =
    let b = Buffer.create 4096 in
    Printf.bprintf b "%s|%d|%d|%d|%d\n" r.finished r.rounds r.delivered
      (Wire.messages r.wire) (Wire.bits r.wire);
    List.iter
      (fun n ->
        Printf.bprintf b "%d|%s|%s|%s|%s\n" (Node_id.to_int n.id)
          (opt_int n.first_output_round) (opt_int n.halted_at)
          (opt_int n.down_since)
          (match n.output with None -> "-" | Some o -> show o))
      r.nodes;
    List.iter (fun v -> Printf.bprintf b "violation %s\n" v) r.violations;
    Gate.digest_of_string (Buffer.contents b)

  (* One instance: set up, run, judge. [prepare] returns the run's spec
     and whatever [judge] needs to map the run's nodes to per-operation
     verdicts; [corrupt] falsifies the outputs for the negative
     self-test. *)
  let instance ~workload ~seed ~traced ~tamper ~setup_batch ~prepare ~show
      ~judge ~corrupt =
    let (spec, ctx), setup_s = timed_setup ~batch:setup_batch prepare in
    let (wall, run, layers, replay_equal), gc =
      measure (fun () ->
          if traced then
            let wall, run, layers, eq = traced_run spec in
            (wall, run, layers @ check_zeros, Some eq)
          else
            let wall, run = untraced spec in
            (wall, run, [], None))
    in
    let run =
      if tamper <> Tamper_output then run
      else
        {
          run with
          nodes =
            List.map (fun n -> { n with output = Option.map corrupt n.output })
              run.nodes;
        }
    in
    let digest = digest ~show run in
    let digest = if tamper = Tamper_digest then "0" ^ digest else digest in
    let counts = counts run in
    let verdict =
      judge ctx run.nodes
      |> Gate.require (run.violations = []) "monitor violation"
      |> Gate.against_pinned ~workload ~seed ~digest ~counts
    in
    {
      setup_s;
      wall_s = wall;
      work = run.delivered;
      digest;
      counts;
      verdict;
      gc;
      layers;
      wire_replay_equal = replay_equal;
    }
end

(* On the two agreement workloads the seed draws every correct node's
   input bit. Identifiers, Byzantine placement, the fault schedule and
   the committee sample come from the workload's fixed structure seed
   instead: they decide how many rotor phases run, so letting the seed
   move them would make each seed a different amount of work. *)
let input_bits seed n =
  let rng = Rng.create (Int64.of_int seed) in
  Array.init n (fun _ -> Rng.int rng 2)

(* A final decision: the output of a node that halted. *)
let decision n = match n.halted_at with Some _ -> n.output | None -> None

(* ------------------------------------------------------------------ *)
(* rb-1sender: Algorithm 1, n = 1001, all correct, one sender           *)
(* ------------------------------------------------------------------ *)

module Rb = Sim (Scenarios.Rb.P)

let rb_n = 1001

let rb ~seed ~traced ~tamper =
  let seed64 = Int64.of_int seed in
  let payload = Printf.sprintf "payload-%d" seed in
  let prepare () =
    let ids = Harness.make_ids ~seed:seed64 rb_n in
    let sender = List.hd ids in
    let correct =
      List.map
        (fun id -> (id, if Node_id.equal id sender then Some payload else None))
        ids
    in
    let everyone_accepted outs =
      outs <> []
      && List.for_all (function Some (_ :: _) -> true | _ -> false) outs
    in
    ( {
        Rb.seed = seed64;
        correct;
        byzantine = [];
        faults = None;
        classify = None;
        max_rounds = 40;
        stop = Some everyone_accepted;
        monitor = None;
      },
      sender )
  in
  let pairs out =
    List.map (fun (a : Scenarios.Rb.P.accepted) -> (a.payload, a.sender)) out
  in
  (* Each node must have accepted exactly the sender's payload. *)
  let judge sender nodes =
    Gate.decisions ~equal:( = )
      ~valid:(fun got -> got = [ (payload, sender) ])
      (List.map (fun n -> Option.map pairs n.output) nodes)
  in
  let show out =
    String.concat ";"
      (List.map
         (fun (a : Scenarios.Rb.P.accepted) ->
           Printf.sprintf "%s/%d@%d" a.payload (Node_id.to_int a.sender)
             a.accepted_round)
         out)
  in
  let corrupt =
    List.map (fun (a : Scenarios.Rb.P.accepted) ->
        { a with payload = "forged" })
  in
  Rb.instance ~workload:"rb-1sender" ~seed ~traced ~tamper ~setup_batch:5
    ~prepare ~show ~judge ~corrupt

(* ------------------------------------------------------------------ *)
(* consensus-byz-faults: Algorithm 3, n = 101, 25 split-world          *)
(* Byzantine nodes, 8 benign fault victims, online monitors            *)
(* ------------------------------------------------------------------ *)

module Cons = Sim (Scenarios.Consensus_int.P)

let cons_correct = 76
let cons_byz = 25
let cons_victims = 8
let cons_structure = 1L

let consensus ~seed ~traced ~tamper =
  let valid v = v = 0 || v = 1 in
  let prepare () =
    let correct_ids, byz_ids =
      Harness.split_population ~seed:cons_structure ~n_correct:cons_correct
        ~n_byz:cons_byz
    in
    let bits = input_bits seed cons_correct in
    let sch =
      Chaos.schedule ~style:`Mixed ~seed:cons_structure ~correct_ids
        ~budget:cons_victims ()
    in
    let excused = Node_id.Set.of_list sch.Chaos.victims in
    let monitor =
      M.create ~excused
        [
          M.agreement ~equal:Int.equal ~pp:Fmt.int ();
          M.validity ~ok:(fun _ v -> valid v) ();
          M.no_send_after_halt ();
        ]
    in
    ( {
        Cons.seed = cons_structure;
        correct = List.mapi (fun i id -> (id, bits.(i))) correct_ids;
        byzantine =
          List.map
            (fun id -> (id, Scenarios.Consensus_int.Attacks.split_world 0 1))
            byz_ids;
        faults = Some sch.Chaos.plan;
        classify = None;
        max_rounds = 200;
        stop = None;
        monitor = Some monitor;
      },
      excused )
  in
  (* Fault victims are excused, as the monitors excuse them. *)
  let judge excused nodes =
    Gate.decisions ~equal:Int.equal ~valid
      (List.filter_map
         (fun n ->
           if Node_id.Set.mem n.id excused then None else Some (decision n))
         nodes)
  in
  Cons.instance ~workload:"consensus-byz-faults" ~seed ~traced ~tamper
    ~setup_batch:40 ~prepare ~show:string_of_int ~judge
    ~corrupt:(fun v -> v + 2)

(* ------------------------------------------------------------------ *)
(* committee-flood: committee agreement, n = 1001, f = n/6 mix of      *)
(* silent, report-flood and inner-split adversaries (CX2's shape)      *)
(* ------------------------------------------------------------------ *)

module Com = Sim (Scenarios.Committee_int.P)

let com_n = 1001

(* CX2's seed: 13 rounds, 1.69M deliveries whatever the input bits. *)
let com_structure = 104L

let committee ~seed ~traced ~tamper =
  let module C = Scenarios.Committee_int in
  let f = com_n / 6 in
  let byz_mix =
    List.init f (fun i ->
        match i mod 3 with
        | 0 -> C.Attacks.silent_member
        | 1 -> C.Attacks.report_flood 99
        | _ -> C.Attacks.inner_split 0 1)
  in
  (* Mixed input bits: any common decision in {0, 1} is valid. *)
  let valid v = v = 0 || v = 1 in
  let prepare () =
    let correct_ids, byz_ids =
      Harness.split_population ~seed:com_structure ~n_correct:(com_n - f)
        ~n_byz:f
    in
    let bits = input_bits seed (com_n - f) in
    let universe = Node_id.sorted (correct_ids @ byz_ids) in
    let monitor =
      M.create
        [
          M.agreement ~equal:Int.equal ~pp:Fmt.int ();
          M.validity ~ok:(fun _ v -> valid v) ();
        ]
    in
    ( {
        Com.seed = com_structure;
        correct =
          List.mapi
            (fun i id ->
              (id, { C.P.value = bits.(i); seed = com_structure; universe }))
            correct_ids;
        byzantine = List.combine byz_ids byz_mix;
        faults = None;
        classify = Some C.P.kind;
        max_rounds = 400;
        stop = None;
        monitor = Some monitor;
      },
      () )
  in
  let judge () nodes =
    Gate.decisions ~equal:Int.equal ~valid (List.map decision nodes)
  in
  Com.instance ~workload:"committee-flood" ~seed ~traced ~tamper
    ~setup_batch:3 ~prepare
    ~show:string_of_int ~judge ~corrupt:(fun v -> v + 2)

(* ------------------------------------------------------------------ *)
(* check-rb: exhaustive checker on reliable broadcast, n = 5, f = 1    *)
(* ------------------------------------------------------------------ *)

module Ck = Ubpa_check.Checker.Make (Ubpa_check.Models.Rb)
module Timed_rb = Layers.Timed_model (Ubpa_check.Models.Rb)
module Tck = Ubpa_check.Checker.Make (Timed_rb)

let check_n = 5
let check_f = 1
let check_rounds = 3

let check_rb ~seed ~traced ~tamper =
  let seed64 = Int64.of_int seed in
  let prepare () =
    let correct, byzantine = Ck.population ~seed:seed64 ~n:check_n ~f:check_f in
    Ubpa_check.Models.Rb.roots ~correct ~byzantine
  in
  let _roots, setup_s = timed_setup ~batch:2000 prepare in
  Layers.reset ();
  let ((r : Ubpa_check.Checker.result), wall), gc =
    measure (fun () ->
        let t0 = now () in
        let r =
          if traced then
            Tck.check ~jobs:1 ~symmetry:true ~seed:seed64 ~n:check_n
              ~f:check_f ~max_rounds:check_rounds ()
          else
            Ck.check ~jobs:1 ~symmetry:true ~seed:seed64 ~n:check_n ~f:check_f
              ~max_rounds:check_rounds ()
        in
        (r, now () -. t0))
  in
  let verdict =
    if tamper = Tamper_output then Ubpa_check.Checker.Violated else r.verdict
  in
  let st = r.stats in
  let counts =
    [
      ("roots", st.roots);
      ("explored", st.explored);
      ("distinct", st.distinct);
      ("dedup_hits", st.dedup_hits);
      ("sym_skips", st.sym_skips);
      ("frontier_peak", st.frontier_peak);
      ("depth", st.depth);
    ]
  in
  let digest =
    Gate.digest_of_string
      (String.concat "|"
         (Ubpa_check.Checker.verdict_to_string verdict
         :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts))
  in
  let digest = if tamper = Tamper_digest then "0" ^ digest else digest in
  let v =
    { Gate.attempted = st.roots; failed = 0; reasons = [] }
    |> Gate.require (verdict = Ubpa_check.Checker.Verified) "not verified"
    |> Gate.against_pinned ~workload:"check-rb" ~seed ~digest ~counts
  in
  let layers =
    if not traced then []
    else
      let c = Layers.c in
      let useful = st.distinct and attempted = st.distinct + st.dedup_hits in
      sim_zeros @ step_layers ~wall
      @ [
          ("check.explored", float_of_int st.explored);
          ("check.distinct", float_of_int st.distinct);
          ("check.dedup_hits", float_of_int st.dedup_hits);
          ("check.sym_skips", float_of_int st.sym_skips);
          ("check.frontier_peak", float_of_int st.frontier_peak);
          ( "check.dedup_ratio",
            if attempted = 0 then 0.
            else float_of_int useful /. float_of_int attempted );
          ("check.state_key_s", c.key_s);
          ("check.copy_state_s", c.copy_s);
          ("check.engine_s", wall -. c.step_s -. c.key_s -. c.copy_s);
        ]
  in
  {
    setup_s;
    wall_s = wall;
    work = st.distinct;
    digest;
    counts;
    verdict = v;
    gc;
    layers;
    wire_replay_equal = None;
  }

let all =
  [
    ("rb-1sender", rb);
    ("consensus-byz-faults", consensus);
    ("committee-flood", committee);
    ("check-rb", check_rb);
  ]
