(** Deterministic seeded committee and attestor sampling (King–Saia style).

    The sub-quadratic agreement protocol ({!Committee_agreement}) replaces
    all-to-all traffic with two public, seed-derived samples over the
    sorted identifier universe:

    - a {b committee} of [committee_size n ≈ ⌈2√n⌉] nodes that runs the
      full-strength consensus core among itself, and
    - per node, an {b attestor set} of [attestor_size n ≈ 2⌈log₂ n⌉]
      committee members from which that node accepts decision reports.

    Everything here is a pure function of [(seed, universe)] — splitmix64
    streams with distinct derivation tags, byte-identical however the
    computation is scheduled (any [--jobs], any delivery core) — so every
    node, the adversary, and the test-suite can recompute anyone's sample.
    All of it is drawn once into a {!sample}; {!members}, {!attestors}
    and {!audience} are reads of the {!shared} one.
    A committee member inverts the attestor map with {!audience} to learn
    exactly which nodes sampled it, which is what keeps the spreading
    phase at Õ(√n) unicasts per member instead of a broadcast.

    Fault tolerance is statistical: sampling preserves the Byzantine
    fraction only in expectation, so the model assumption is the
    ε-slacked [f ≤ (1−ε)·n/3] (see docs/MODEL.md), under which a sampled
    committee has fewer than [k/3] Byzantine members with high
    probability, and a sampled attestor set has an honest majority with
    high probability. *)

open Ubpa_util

val committee_size : int -> int
(** [committee_size n] = [min n ⌈2√n⌉]; 0 when [n ≤ 0]. *)

val attestor_size : int -> int
(** [attestor_size n] = [min (committee_size n) (max 3 2⌈log₂ n⌉)] —
    how many committee members each node samples as attestors. *)

type sample = {
  seed : int64;
  universe : Node_id.t array;  (** Deduplicated, ascending. *)
  committee : Node_id.t array;  (** Ascending. *)
  committee_list : Node_id.t list;  (** [committee] as a list. *)
  committee_set : Node_id.Set.t;  (** [committee] as a set. *)
  attestors : Node_id.t array array;
      (** [attestors.(i)]: the attestor set of [universe.(i)], ascending. *)
  audiences : Node_id.t list array;
      (** [audiences.(j)]: the audience of [committee.(j)], ascending. *)
}
(** Every public draw for one [(seed, universe)]: the committee, each
    node's attestors and each member's audience. Immutable once built —
    treat the arrays as read-only, since {!shared} hands one value to
    every caller. *)

val sample : seed:int64 -> universe:Node_id.t list -> sample
(** A fresh build, O(n·q) for [n] distinct identifiers and attestor sets
    of [q]. [universe] may be in any order; duplicates are ignored. *)

val shared : seed:int64 -> universe:Node_id.t list -> sample
(** {!sample} through a one-entry memo keyed on [seed] and the physical
    [universe] list, so the n nodes of one run that were handed the same
    list build it once. Safe across domains: the entry is published
    atomically, and a miss only rebuilds — the result is always equal to
    a fresh {!sample}. *)

val is_member : sample -> Node_id.t -> bool
(** Committee membership. *)

val attestors_of : sample -> Node_id.t -> Node_id.t array
(** The attestor set of any identifier, ascending: an array read for
    universe members, the same seeded draw for anyone else. *)

val audience_of : sample -> Node_id.t -> Node_id.t list
(** The audience of a committee member, ascending; [[]] for anyone
    else. *)

val members : seed:int64 -> universe:Node_id.t list -> Node_id.t list
(** The committee: [committee_size n] distinct identifiers sampled from
    the sorted universe. Sorted ascending; deterministic in
    [(seed, universe)] as a set — duplicates in [universe] are ignored. *)

val attestors :
  seed:int64 -> universe:Node_id.t list -> self:Node_id.t -> Node_id.t list
(** The committee members node [self] accepts decision reports from:
    [attestor_size n] distinct members keyed by [(seed, self)], where [n]
    counts distinct identifiers. Sorted ascending. Any caller can
    recompute any node's set — the map is public. *)

val audience :
  seed:int64 -> universe:Node_id.t list -> member:Node_id.t -> Node_id.t list
(** Inverse of {!attestors}: every node whose attestor set contains
    [member], ascending. Empty when [member] is not on the committee.
    Expected size [n · attestor_size n / committee_size n ≈ √n·log₂ n],
    which is the spreading phase's per-member send budget. *)
