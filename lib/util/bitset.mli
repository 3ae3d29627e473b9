(** Growable bitmap over small non-negative integers.

    Companion to {!Id_table} and {!Interner}: once node identifiers are
    interned to dense indices, sets of nodes (a node's heard-from set, its
    frozen membership, a tally's senders) become byte-packed bitmaps with
    O(1) membership and insert, n/8 bytes for n indices. *)

type t

val create : ?hint:int -> unit -> t
(** Empty set; [hint] is the expected index bound (grows on demand). *)

val mem : t -> int -> bool
(** [mem t ix] — false for any index never added, however large. *)

val add : t -> int -> unit
(** Insert [ix], growing the backing bytes if needed. Idempotent. Raises
    [Invalid_argument] on negative indices. *)

val count : t -> int
(** Number of distinct indices added. *)

val copy : t -> t
(** Independent snapshot of the set. *)

val clear : t -> unit
(** Remove every member, keeping the backing bytes at their grown size —
    the round-reuse primitive of the arena delivery core. *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold over the member indices in ascending order. Cost is one test per
    byte of capacity plus one per bit of each non-zero byte. *)

val iter : t -> (int -> unit) -> unit
(** [iter t f] applies [f] to the member indices in ascending order. *)
