(** Shared experiment-runner layer.

    Every consumer of the engine — the scenario library, the benchmark
    suite, the CLI — needs the same scaffolding: scatter node identifiers,
    split them into correct and Byzantine populations, build a network,
    drive it, and collect rounds / delivery counts / outputs into a
    summary. This module is the single copy of that scaffolding.

    {!Make.execute} covers the common shapes (run to halt, run until a
    predicate, plus optional settle rounds). Experiments that drive rounds
    by hand — dynamic-membership loops, stimulus-driven churn — build the
    network with {!Make.create}, loop with [Net.step_round] themselves, and
    snapshot the result with {!Make.collect}. *)

open Ubpa_util
open Ubpa_sim

val make_ids : seed:int64 -> int -> Node_id.t list
(** [n] well-spread node identifiers (deterministic in [seed]). *)

val max_f : int -> int
(** Largest [f] with [n > 3f]. *)

val split_population :
  seed:int64 -> n_correct:int -> n_byz:int -> Node_id.t list * Node_id.t list
(** One scattered id population, first [n_correct] ids correct, the rest
    Byzantine. *)

(** Live differential oracle for the delivery engine: every round a
    network executes is re-routed through {!Delivery.route_reference}
    ({!Make.check_reference}) and compared with what the arena core
    routed. Valid for any run, faulty or not — it checks routing, which
    happens before receive faults. *)
module Reference : sig
  type t

  val create : unit -> t

  val wire : t -> Ubpa_obs.Wire.t
  (** Wire counters charged per delivery at the reference core's accept
      points, with the network's sizes and kinds: {!Ubpa_obs.Wire.equal}
      to the network's own {!Network.Make.wire} when accounting agrees. *)

  val rounds : t -> int
  (** Rounds checked. *)

  val delivered : t -> int
  (** Deliveries the reference core routed over the checked rounds. *)

  val divergence : t -> string option
  (** The first round where the delivered count or a present node's
      inbox (senders, payloads by [compare_message], order) differed. *)

  val agrees : t -> bool
  (** No divergence. *)
end

module Make (P : Protocol.S) : sig
  module Net : module type of Network.Make (P)

  type finished =
    [ `All_halted
    | `Max_rounds_reached of Node_id.t list
      (** Carries the correct nodes that never halted. *)
    | `No_correct_nodes
    | `Stopped ]

  type outcome = {
    finished : finished;
    rounds : int;  (** Rounds executed. *)
    delivered_msgs : int;  (** Deduplicated deliveries, whole run. *)
    outputs : (Node_id.t * P.output) list;
        (** Correct nodes that produced an output, with their latest. *)
    reports : Net.node_report list;
    metrics : Metrics.t;
    net : Net.t;  (** The network itself, for ad-hoc inspection. *)
  }

  val create :
    ?rushing:bool ->
    ?seed:int64 ->
    ?faults:Ubpa_faults.plan ->
    ?trace:Trace.t ->
    ?classify:(P.message -> string) ->
    ?stimulus:(round:int -> Node_id.t -> P.stimulus list) ->
    correct:(Node_id.t * P.input) list ->
    byzantine:(Node_id.t * P.message Strategy.t) list ->
    unit ->
    Net.t
  (** [Net.create], re-exported so hand-driven experiments need only this
      module. *)

  val collect : Net.t -> finished:finished -> outcome
  (** Snapshot a (finished) network into an {!outcome}. *)

  val observations : Net.t -> P.output Ubpa_monitor.node_obs list
  (** The per-node snapshot {!Ubpa_monitor.observe} expects, derived from
      [Net.reports]. *)

  val observe : P.output Ubpa_monitor.t -> Net.t -> unit
  (** Feed the network's current state to a monitor — what hand-driven
      round loops call after each [Net.step_round]. *)

  val check_reference :
    ?classify:(P.message -> string) -> Reference.t -> Net.t -> unit
  (** Check the round [net] last executed against the reference core.
      Call it after every [Net.step_round] (the routed view is only valid
      until the next one); a no-op before the first round. [classify]
      must be the network's, so the two wires price kinds alike. *)

  val execute :
    ?rushing:bool ->
    ?seed:int64 ->
    ?faults:Ubpa_faults.plan ->
    ?trace:Trace.t ->
    ?classify:(P.message -> string) ->
    ?stimulus:(round:int -> Node_id.t -> P.stimulus list) ->
    ?max_rounds:int ->
    ?stop:(Net.t -> bool) ->
    ?settle:int ->
    ?monitor:P.output Ubpa_monitor.t ->
    ?reference:Reference.t ->
    correct:(Node_id.t * P.input) list ->
    byzantine:(Node_id.t * P.message Strategy.t) list ->
    unit ->
    outcome
  (** Build, run, collect. Without [stop], runs until every correct node
      halts ([Net.run]); with [stop], until the predicate holds
      ([Net.run_until]). [settle] (default 0) executes that many extra
      rounds after the run ends — e.g. to let relay properties propagate —
      before collecting. [faults] is handed to [Net.create]. [monitor]
      switches to a hand-driven loop with the same semantics that feeds
      the monitor after every round (settle rounds included) and
      subscribes it to the trace. When the monitor has event invariants
      ({!Ubpa_monitor.needs_trace}) and no [trace] was supplied, an
      enabled trace is created on the caller's behalf, so they always see
      the run; a round-only monitor's run records no trace unless the
      caller passed one. [reference] runs {!check_reference} after every
      round, settle rounds included, on the same hand-driven loop. *)
end
