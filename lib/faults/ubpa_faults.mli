(** Declarative, seed-deterministic fault plans for {e correct} nodes.

    The paper proves its guarantees against at most [f] {e Byzantine}
    nodes; every benign fault below (crash, omission, churn) is a strict
    subset of Byzantine behaviour, so a run stays inside the proven
    envelope as long as [#victims + #byzantine <= f] and no global
    loss/duplication is configured. A plan is pure data: the engine
    ({!Ubpa_sim.Network.Make.create}[ ?faults]) interprets it at the
    delivery boundary, drawing every probabilistic decision from its own
    splitmix64 stream so runs are reproducible from the engine seed.

    Faults address nodes by identifier. Plans only ever affect correct
    nodes — Byzantine misbehaviour is expressed as
    {!Ubpa_sim.Strategy.t} values, not here. *)

open Ubpa_util

(** A benign fault on one node. Rounds are 1-based, matching
    [Network.round]. *)
type benign =
  | Crash of { at : int; recover : int option }
      (** Crash-stop at round [at] (inclusive): the node stops stepping,
          sending and receiving. With [recover = Some r] it resumes at
          round [r] with its state intact, having missed everything in
          between (crash-recover). *)
  | Leave of { at : int; rejoin : int option }
      (** Round-scheduled churn: the node leaves the network at round
          [at]; with [rejoin = Some r] it comes back at round [r].
          Operationally identical to {!Crash} — the distinction is kept
          for the trace, where churn and crashes are different stories. *)
  | Send_omission of { first : int; last : int option; prob : float }
      (** While [first <= round <= last] (no [last] = forever), each
          envelope the node sends is dropped with probability [prob]. *)
  | Recv_omission of { first : int; last : int option; prob : float }
      (** While active, each envelope addressed to the node is dropped
          after routing with probability [prob]. *)
  | Delay of { first : int; last : int option; prob : float; rounds : int }
      (** While active, each envelope addressed to the node is held back
          with probability [prob] for [rounds] extra rounds
          ([rounds >= 1]). Under the engine's synchronous semantics a
          held envelope misses its delivery round and is dropped (the
          simulator has no late-delivery slot); the networked runtime
          surfaces it as a {e late frame} — counted, then dropped — so
          both layers agree the message never reached the protocol. *)

type plan

val empty : plan
(** No faults. The engine treats [empty] as "no fault hook at all". *)

val is_empty : plan -> bool

val make :
  ?loss:float -> ?dup:float -> (Node_id.t * benign list) list -> plan
(** [make faults] builds a plan. [loss] (default 0) drops every pending
    envelope — whoever sent it — with that probability before routing;
    [dup] (default 0) re-delivers an envelope a second time {e in the
    next round}, modelling a duplicating link (a same-round duplicate
    would be absorbed by the engine's per-round dedup). Both make the
    run leave the paper's synchronous model for {e every} node, hence
    {!benign_only} turns false. Raises [Invalid_argument] on
    probabilities outside [0, 1], rounds < 1, recovery not after the
    crash, or a node listed twice. *)

(** {2 Constructors} *)

val crash : at:int -> ?recover:int -> unit -> benign
val leave : at:int -> ?rejoin:int -> unit -> benign
val send_omission : first:int -> ?last:int -> prob:float -> unit -> benign
val recv_omission : first:int -> ?last:int -> prob:float -> unit -> benign
val delay : first:int -> ?last:int -> prob:float -> rounds:int -> unit -> benign

(** {2 Queries (used by the engine)} *)

val loss : plan -> float
val dup : plan -> float

val victims : plan -> Node_id.t list
(** Nodes with at least one benign fault, ascending. *)

val benign_only : plan -> bool
(** True iff [loss = 0] and [dup = 0]: only per-node crash/omission/churn
    faults, i.e. behaviours a Byzantine node could exhibit. *)

val status : plan -> node:Node_id.t -> round:int -> [ `Up | `Crashed | `Left ]
(** Whether the node is up in [round]. [`Left] wins over [`Crashed] when
    both apply (the trace label differs, the semantics do not). *)

val permanently_down : plan -> node:Node_id.t -> round:int -> bool
(** Down in [round] with no recovery/rejoin scheduled afterwards — such a
    node can never halt and is written off by [Network.all_halted]. *)

val send_omission_prob : plan -> node:Node_id.t -> round:int -> float
(** Largest active send-omission probability for the node (0 if none). *)

val recv_omission_prob : plan -> node:Node_id.t -> round:int -> float

val delay_spec : plan -> node:Node_id.t -> round:int -> (float * int) option
(** Active delay fault for an envelope addressed to [node] delivered in
    [round]: [(prob, extra_rounds)], picking the highest-probability
    active window. [None] when no delay fault applies — interpreters
    must draw {e no} randomness in that case, so plans without delay
    faults reproduce historical runs bit-for-bit. *)

val has_recovery : plan -> bool
(** True iff any crash has a [recover] or any leave a [rejoin] round.
    The networked runtime rejects such plans (a real crashed process
    cannot resume); the simulator supports them. *)

val crashes : plan -> (Node_id.t * int) list
(** Permanent departures: each node with an unrecovered crash/leave,
    paired with the first round it is down, ascending by id. *)

val pp : Format.formatter -> plan -> unit

val parse_spec : ids:Node_id.t list -> string -> (plan, string) result
(** [parse_spec ~ids s] parses the plan DSL used by [ubpa run --faults]
    and [ubpa chaos]: comma-separated clauses addressing nodes by
    {e 0-based index} into the ascending-id order of [ids] (portable
    across id seeds). Clauses:

    {v
    loss=P                  global loss probability
    dup=P                   global next-round duplication probability
    crash:I@R               node I crash-stops at round R
    leave:I@R               node I leaves (churn) at round R
    send-omit:I@A..B=P      send omission, rounds A..B (A.. open, A = A..A)
    recv-omit:I@A..B=P      receive omission, same window syntax
    delay:I@A..B=PxD        delay to node I: hold prob P, D extra rounds
    v}

    Example: ["crash:1@3,delay:2@1..4=0.5x1,loss=0.05"]. Returns the
    validated plan or a human-readable error. *)
