(** Candidate/selection state machine of the rotor-coordinator
    (Algorithm 2), factored out so it can run standalone (one rotor round
    per network round, {!Rotor}) or embedded (one rotor round per consensus
    phase, {!Consensus_core} and {!Parallel_consensus_core}).

    The host owns the network plumbing: it feeds each rotor round the
    [echo(p)] messages that arrived for it, broadcasts the returned relay
    echoes, broadcasts its opinion when [i_am_coordinator], and accepts the
    opinion of the previously selected coordinator. *)

open Ubpa_util

(** Readable (not writable) from outside so tests can check
    {!add_fingerprint} against an independent encoding. *)
type t = private {
  mutable c : Node_id.t list;  (** candidate coordinators, ascending *)
  mutable s : Node_id.Set.t;  (** already-selected coordinators *)
  mutable r : int;  (** loop index, starts at 0 *)
  mutable history : (int * Node_id.t) list;  (** newest first *)
  ids : Id_table.t;  (** the network's shared index, for echo tallies *)
}

val create : ids:Id_table.t -> t
(** Fresh rotor over the host node's shared index ([Protocol.S.init]'s
    [ids]). *)

type step_result = {
  selected : Node_id.t option;
      (** Coordinator of this rotor round ([None] only in the degenerate
          case of an empty candidate set). *)
  relay_echoes : Node_id.t list;
      (** Candidates whose echo crossed [n_v/3]; the host must re-broadcast
          [echo(p)] for each (the set [B_v]). *)
  i_am_coordinator : bool;
  finished : bool;
      (** The node re-selected an earlier coordinator: Algorithm 2's
          [break]. No coordinator is appointed in this round. *)
}

val rotor_round :
  t ->
  self:Node_id.t ->
  n_v:int ->
  echoes:(Node_id.t * Node_id.t) list ->
  step_result
(** [rotor_round t ~self ~n_v ~echoes] runs one iteration of Algorithm 2's
    loop. [echoes] are the [(sender, candidate)] pairs delivered for this
    rotor round; duplicate senders per candidate are counted once. *)

val candidates : t -> Node_id.t list
(** Current [C_v], ascending. *)

val selections : t -> (int * Node_id.t) list
(** [(rotor round index, coordinator)] history, oldest first. *)

val copy : t -> t
(** Independent snapshot; stepping the copy never affects the original. *)

val add_fingerprint : Buffer.t -> t -> unit
(** Append the canonical encoding of the dynamics-relevant state ([C_v],
    [S_v], loop index) in id space: equal fingerprints mean the two rotors
    behave identically on identical future echoes. Part of the bounded
    checker's state-hash key; fixed separators, no [Format] layout. *)
