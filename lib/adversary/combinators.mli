(** Strategy combinators: build compound Byzantine behaviours from simple
    ones. All combinators preserve determinism (per-node state is created
    at instantiation). *)

open Ubpa_sim

val switch_at : round:int -> 'm Strategy.t -> 'm Strategy.t -> 'm Strategy.t
(** [switch_at ~round before after] behaves like [before] strictly before
    [round] and like [after] from [round] on — e.g. announce normally, turn
    hostile later. Both sub-strategies are instantiated upfront so their
    internal state evolves even while the other is active. *)

val merge : 'm Strategy.t list -> 'm Strategy.t
(** Send the union of what every sub-strategy would send each round. *)

val only_rounds : (int -> bool) -> 'm Strategy.t -> 'm Strategy.t
(** Gate a strategy: act only in rounds satisfying the predicate,
    stay silent otherwise. *)

val target_subset : fraction:float -> 'm Strategy.t -> 'm Strategy.t
(** Re-route every send of the inner strategy to the first [fraction] of
    the correct nodes: a broadcast becomes one unicast per target, a
    unicast survives only to a target, a multicast keeps only its
    targeted members — turns any attack into a partial-visibility
    attack. *)

val with_probability : float -> 'm Strategy.t -> 'm Strategy.t
(** Flip a (seeded, per-node) coin each round; act only on heads. *)
