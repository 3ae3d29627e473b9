(** One network's identifier -> dense-index table.

    Every node of a network shares one table, handed to it at
    [Protocol.S.init]. A node keeps each set of identifiers it cares about
    (the senders it has heard from, its frozen membership, a tally's
    senders) as a {!Bitset} over the table's indices: n/8 bytes per set
    instead of the ~3n words of a private {!Interner}.

    The table grows whenever any node of the network meets an identifier
    for the first time, so an index says nothing about when {e this} node
    first heard from that identifier. Nor may the table tell a node how
    many nodes exist: it has no size and no iteration. A node's own [n_v]
    is the count of its own set.

    Order contract: indices are plumbing. They must never reach an
    output, a state key, a send order or a digest — which node meets an
    identifier first is an accident of the engine's stepping order.
    Anything keyed or ordered by identifier goes back through {!id} and
    sorts by {!Node_id.compare}.

    A table is single-owner mutable state: one simulation (or one runtime
    process) per table, never shared between domains. *)

type t

val create : ?hint:int -> unit -> t
(** Fresh empty table; [hint] is the expected number of identifiers. *)

val index : t -> Node_id.t -> int
(** Dense index of [id], assigned on first sight. Idempotent. *)

val id : t -> int -> Node_id.t
(** Inverse of {!index}. Raises [Invalid_argument] on an index never
    assigned. *)
