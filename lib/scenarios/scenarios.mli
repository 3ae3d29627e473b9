(** Ready-made, deterministic experiment scenarios.

    One runner per algorithm of the paper, each wiring a concrete value
    type, a population of scattered identifiers, a Byzantine strategy per
    faulty node, and the synchronous engine. Tests, the benchmark harness,
    the CLI and the examples all drive the library through this module, so
    every reported number is reproducible from a seed. *)

open Ubpa_util
open Ubpa_sim
open Unknown_ba

val make_ids : seed:int64 -> int -> Node_id.t list
(** [n] scattered, non-consecutive identifiers. *)

val max_f : int -> int
(** Largest [f] with [n > 3f]. *)

(** {1 Reliable broadcast (Algorithm 1)} *)

module Rb : sig
  module P : module type of Reliable_broadcast.Make (Value.String)
  module Net : module type of Network.Make (P)
  module Attacks : module type of Ubpa_adversary.Rb_attacks.Make (Value.String)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    (* Per correct node: accepted (payload, claimed sender, accept round). *)
    accepted : (Node_id.t * (string * Node_id.t * int) list) list;
    all_accepted_sender_payload : bool;
        (** every correct node accepted the designated sender's payload *)
    consistent_acceptance : bool;
        (** all-or-none: every (payload, sender) pair accepted by some
            correct node was accepted by all of them (relay property) *)
    max_accept_round : int;
    min_accept_round : int;
  }

  val run :
    ?seed:int64 ->
    ?max_rounds:int ->
    ?byz:P.message Strategy.t list ->
    ?byz_sender:bool ->
    n_correct:int ->
    payload:string ->
    unit ->
    summary
  (** One designated sender (the first correct node, or Byzantine when
      [byz_sender] — then the first strategy acts as the sender). The run
      stops when every correct node accepted the payload or [max_rounds]
      passed. *)
end

(** {1 Rotor-coordinator (Algorithm 2)} *)

module Rotor_int : sig
  module P : module type of Rotor.Make (Value.Int)
  module Net : module type of Network.Make (P)
  module Attacks : module type of Ubpa_adversary.Rotor_attacks.Make (Value.Int)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    all_terminated : bool;
    outputs : (Node_id.t * P.output) list;
    good_round_exists : bool;
        (** a rotor round in which every correct node selected the same
            correct coordinator (Theorem "rc") *)
    termination_rounds : int list;  (** per correct node *)
  }

  val run :
    ?seed:int64 ->
    ?max_rounds:int ->
    ?byz:P.message Strategy.t list ->
    n_correct:int ->
    unit ->
    summary
end

(** {1 Early-terminating consensus (Algorithm 3)} *)

module Consensus_int : sig
  module P : module type of Consensus.Make (Value.Int)
  module Net : module type of Network.Make (P)
  module Attacks : module type of Ubpa_adversary.Consensus_attacks.Make (Value.Int)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * int) list;
    agreed : bool;
    valid : bool;
        (** unanimity validity: when every correct input is the same value,
            the common output equals it (all Algorithm 3 guarantees for
            multivalued inputs) *)
    all_terminated : bool;
    decision_rounds : int list;
  }

  val run :
    ?seed:int64 ->
    ?max_rounds:int ->
    ?byz:P.message Strategy.t list ->
    n_correct:int ->
    inputs:(int -> int) ->
    unit ->
    summary
  (** [inputs i] is the input of the [i]-th correct node. *)
end

(** {1 Committee-sampling agreement (King–Saia style, sub-quadratic)} *)

module Committee_int : sig
  module P : module type of Committee_agreement.Make (Value.Int)
  module Net : module type of Network.Make (P)

  module Attacks : module type of Ubpa_adversary.Committee_attacks.Make
                                    (Value.Int)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * int) list;
    agreed : bool;
    valid : bool;
        (** unanimity validity (w.h.p. over the seed): when every correct
            input is the same value, that value is the common output *)
    all_terminated : bool;
    decision_rounds : int list;
    committee : Node_id.t list;  (** the sampled committee, ascending *)
    byz_members : int;  (** Byzantine identifiers sampled into it *)
    attestor_q : int;  (** per-node attestor sample size *)
    max_budget_msgs : int;
        (** largest per-node wire budget (sent + received messages) over
            the {e correct} nodes — a flooding adversary's own sent-side
            spend is excluded, its inflation of correct receivers is
            not *)
    max_budget_bits : int;  (** ditto, in bits — CX2's gated quantity *)
    monitor_green : bool;
        (** online agreement/validity monitors saw no violation *)
    wire : Ubpa_obs.Wire.t;  (** the run's wire counters *)
  }

  val run :
    ?seed:int64 ->
    ?max_rounds:int ->
    ?byz:P.message Strategy.t list ->
    ?rushing:bool ->
    ?trace:Trace.t ->
    ?reference:Ubpa_harness.Harness.Reference.t ->
    n_correct:int ->
    inputs:(int -> int) ->
    unit ->
    summary
  (** [inputs i] is the input of the [i]-th correct node. The universe
      handed to every node is the full scattered population (correct and
      Byzantine); the committee is sampled from it by the public seed.
      [reference] checks every round against the reference delivery core
      ({!Ubpa_harness.Harness.Make.check_reference}). *)
end

(** {1 Approximate agreement (Algorithm 4)} *)

module Aa : sig
  module P : sig
    include module type of Approx_agreement
  end

  module Net : module type of Network.Make (Approx_agreement)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * float) list;
    input_range : float * float;  (** over correct inputs *)
    output_range : float * float;
    within_range : bool;
    contraction : float;
        (** output spread / input spread; 0 when the input spread is 0 *)
  }

  val run :
    ?seed:int64 ->
    ?byz:Approx_agreement.message Strategy.t list ->
    ?iterations:int ->
    n_correct:int ->
    inputs:(int -> float) ->
    unit ->
    summary

  (** {2 Dynamic network variant (Section "Application to Dynamic
      Networks")} *)

  type dynamic_summary = {
    rounds : int;
    range_per_round : (int * float * float) list;
        (** (round, lowest, highest) correct estimate: the spread halves
            each round, except that a join may widen it *)
    joins_applied : (int * float) list;
    within_global_range : bool;
        (** final estimates inside the range of all inputs ever supplied *)
  }

  val run_dynamic :
    ?seed:int64 ->
    ?byz:Approx_agreement.message Strategy.t list ->
    n_start:int ->
    iterations:int ->
    joins:(int * float) list ->
    inputs:(int -> float) ->
    unit ->
    dynamic_summary
  (** [joins] are [(round, value)] arrivals; several joiners may share a
      round (simultaneous arrival is what can widen the range past the
      trimming). *)
end

(** {1 Parallel consensus (Algorithm 5)} *)

module Parallel_int : sig
  module P : module type of Parallel_consensus.Make (Value.Int)
  module Net : module type of Network.Make (P)
  module Attacks : module type of Ubpa_adversary.Pc_attacks.Make (Value.Int)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * (int * int) list) list;
    agreed : bool;  (** identical output pair sets *)
    all_terminated : bool;
  }

  val run :
    ?seed:int64 ->
    ?max_rounds:int ->
    ?byz:P.message Strategy.t list ->
    n_correct:int ->
    inputs:(int -> (int * int) list) ->
    unit ->
    summary
end


(** {1 Rotor-driven binary consensus (the paper's original king-style
    algorithm)} *)

module Binary : sig
  module Net : module type of Network.Make (Binary_consensus)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * bool) list;
    agreed : bool;
    valid : bool;
        (** strong validity — the binary output is the input of some
            correct node *)
    all_terminated : bool;
    decision_rounds : int list;  (** first-decision round per node *)
  }

  val run :
    ?seed:int64 ->
    ?max_rounds:int ->
    ?byz:Binary_consensus.message Strategy.t list ->
    n_correct:int ->
    inputs:(int -> bool) ->
    unit ->
    summary
end

(** {1 Total ordering in a dynamic network (Algorithm 6)} *)

module Total_order_str : sig
  module P : module type of Total_order.Make (Value.String)
  module Net : module type of Network.Make (P)

  type churn = {
    join_at : (int * int) list;
        (** [(round, how_many)] joiners entering at given rounds *)
    leave_at : (int * int) list;
        (** [(round, how_many)] genesis nodes asked to leave *)
  }

  val no_churn : churn

  type summary = {
    rounds : int;
    delivered_msgs : int;
    chains : (Node_id.t * P.chain_output) list;  (** final chain per node *)
    prefix_consistent : bool;
        (** every pair of chains is prefix-ordered (chain-prefix) *)
    chain_lengths : int list;
    frontier_lags : int list;
        (** per node: logical round minus finality frontier — the paper
            predicts ⌊5|S|/2⌋ + 3 *)
    events_submitted : int;
  }

  val run :
    ?seed:int64 ->
    ?byz:P.message Strategy.t list ->
    ?churn:churn ->
    n_genesis:int ->
    rounds:int ->
    events_per_round:int ->
    unit ->
    summary
  (** [events_per_round] correct nodes witness one event each per logical
      round (round-robin over the population). *)
end

(** {1 Byzantine renaming (appendix)} *)

module Renaming_run : sig
  module Net : module type of Network.Make (Renaming)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * Renaming.output) list;
    consistent : bool;  (** identical name assignments at all nodes *)
    names_are_dense : bool;  (** ranks are exactly 1..|S| *)
    all_terminated : bool;
  }

  val run :
    ?seed:int64 ->
    ?max_rounds:int ->
    ?byz:Renaming.message Strategy.t list ->
    n_correct:int ->
    unit ->
    summary
end

(** {1 Terminating reliable broadcast (appendix)} *)

module Trb_str : sig
  module P : module type of Terminating_rb.Make (Value.String)
  module Net : module type of Network.Make (P)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * string option) list;
    agreed : bool;
    all_terminated : bool;
  }

  val run :
    ?seed:int64 ->
    ?max_rounds:int ->
    ?byz:P.message Strategy.t list ->
    ?byz_sender:bool ->
    n_correct:int ->
    payload:string ->
    unit ->
    summary
end
