(** Online safety monitors.

    A monitor watches a run {e while it unfolds} — fed a per-node
    observation after every round and (via {!Ubpa_sim.Trace.subscribe})
    every trace event as it is recorded — and records the first violation
    of each invariant with its round, node and invariant name. Tests and
    the chaos harness read the verdict instead of discovering divergence
    at end-of-run assertion time; a violation is a report, never an
    assertion failure.

    The monitor is polymorphic in the protocol's output type ['o], so one
    library serves every [Protocol.S] instantiation. Nodes in the
    [excused] set — typically the fault plan's victims, which the paper's
    theorems say nothing about — are invisible to every invariant. *)

open Ubpa_util

type violation = {
  invariant : string;
  round : int;
  node : Node_id.t option;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** What the harness reports about one correct node after a round. *)
type 'o node_obs = {
  node : Node_id.t;
  joined_at : int;
  halted_at : int option;
  down : bool;  (** An injected crash/leave is currently in effect. *)
  output : 'o option;  (** Latest output, final iff [halted_at] is set. *)
}

type 'o invariant
(** A named predicate over a run, instantiated fresh (with fresh internal
    state) for each {!create}. *)

type 'o t

val create : ?excused:Node_id.Set.t -> 'o invariant list -> 'o t

val observe : 'o t -> round:int -> 'o node_obs list -> unit
(** Feed the end-of-round snapshot. Each invariant fires at most once. *)

val observe_event : 'o t -> Ubpa_sim.Trace.event -> unit
(** Feed one trace event; pass this to [Trace.subscribe]. *)

val needs_trace : 'o t -> bool
(** Some live invariant has an event hook ({!no_send_after_halt},
    {!custom} with [on_event]), so the run must record an enabled trace
    for {!observe_event} to have anything to see. A monitor of round
    invariants only reads {!observe}, and a run it watches can keep
    its trace disabled. *)

val violations : 'o t -> violation list
(** In order of detection; at most one per invariant. *)

val first_violation : 'o t -> violation option
val all_green : 'o t -> bool

(** {2 Invariants}

    Round-based checks only look at {e halted} nodes' outputs unless
    stated otherwise, so protocols that stream provisional [Deliver]
    outputs are not flagged mid-convergence. *)

val agreement :
  ?name:string -> ?pp:(Format.formatter -> 'o -> unit) ->
  equal:('o -> 'o -> bool) -> unit -> 'o invariant
(** No two halted nodes decided differently. *)

val validity :
  ?name:string -> ok:(Node_id.t -> 'o -> bool) -> unit -> 'o invariant
(** Every halted node's decision satisfies [ok]. *)

val termination_by : round:int -> unit -> 'o invariant
(** From round [round] on, every node that is not down must have halted.
    Fires only if the run actually reaches that round. *)

val progress_by :
  name:string -> round:int -> ok:('o node_obs -> bool) -> unit ->
  'o invariant
(** Like {!termination_by} for protocols that never halt (e.g. reliable
    broadcast): from round [round] on, every node that is not down must
    satisfy [ok]. *)

val unforgeable :
  ?name:string -> keys:('o -> 'k list) -> forged:('k -> bool) ->
  ?pp_key:(Format.formatter -> 'k -> unit) -> unit -> 'o invariant
(** No node's output (halted or not) ever contains a [forged] entry —
    RB-unforgeability with [keys] extracting the accepted
    [(payload, sender)] pairs. *)

val accept_relay :
  ?name:string -> keys:('o -> 'k list) -> unit -> 'o invariant
(** RB-relay: once any observed node's output contains a key (first seen
    in observation round [r]), every node that is not down and joined by
    [r] must contain it from round [r+1] on. Keys are compared
    structurally. *)

val no_send_after_halt : unit -> 'o invariant
(** Event-based engine sanity: a node never emits a [Send] after its
    [Halt]. *)

val custom :
  name:string ->
  ?on_round:(round:int -> 'o node_obs list -> (Node_id.t option * string) option) ->
  ?on_event:(Ubpa_sim.Trace.event -> (Node_id.t option * string) option) ->
  unit ->
  'o invariant
(** Escape hatch: return [Some (node, detail)] to fire. The callbacks see
    observations with excused nodes already removed. *)
