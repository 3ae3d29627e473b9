(** Per-round tallies of who sent what.

    Algorithms in the id-only model repeatedly ask "how many distinct nodes
    sent me message [m] this round?". A tally ingests the round's inbox and
    answers per-content counts while suppressing duplicate (sender, content)
    pairs, as the model prescribes.

    Senders are indexed by the network's shared {!Id_table} and each
    content's sender set is a {!Bitset} over those indices, so an insert
    and its duplicate check are O(1). Indices never leave the tally:
    {!senders} goes back to identifiers, and every other answer is keyed
    by content. Contents are kept in first-seen order and indexed by a
    balanced tree ordered by the tally's own [compare], so finding a
    content costs O(log k) comparisons for k distinct contents. Two
    contents are the same content exactly when [compare] returns 0. *)

type ('k, 'v) t
(** A tally keyed by message content ['k]; remembers the set of senders. *)

val create : compare:('k -> 'k -> int) -> ids:Id_table.t -> ('k, 'v) t
(** Empty tally whose senders are indexed by [ids], the table the node was
    given at [init], so that indices the caller already holds can be
    passed to {!add_index}. Senders met through {!add} are indexed on the
    fly. *)

val add : ('k, 'v) t -> sender:Node_id.t -> 'k -> unit
(** Record that [sender] sent content [k]. Duplicate (sender, content)
    pairs are ignored. *)

val add_index : ('k, 'v) t -> int -> 'k -> unit
(** [add_index t ix k] is [add t ~sender k] for the sender whose dense
    index in the tally's table is [ix], without looking it up again. *)

val count : ('k, 'v) t -> 'k -> int
(** Number of distinct senders that sent [k]. *)

val senders : ('k, 'v) t -> 'k -> Node_id.t list
(** The distinct senders of [k], in ascending identifier order. *)

val contents : ('k, 'v) t -> 'k list
(** All contents seen, each once, newest first: the reverse of the order in
    which each content was first added. Callers derive their send order
    from this order, so it is part of the contract. *)

val max_by_count : ('k, 'v) t -> ('k * int) option
(** Content with the highest distinct-sender count (ties broken by the
    content ordering, smallest first), or [None] if the tally is empty. *)

val meeting : ('k, 'v) t -> threshold:(int -> bool) -> 'k list
(** Contents whose distinct-sender count satisfies [threshold], in the
    order of {!contents} (newest first). *)
