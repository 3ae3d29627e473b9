(** Dense interning of scattered node identifiers.

    Identifiers drawn by {!Node_id.scatter} are sparse 30-bit integers. An
    interner assigns each identifier a dense index [0..n-1] in first-seen
    order, letting state keyed by node switch to arrays and byte-sized
    bitmaps. The engine's own tables (the delivery core's recipient boxes,
    wire accounting) use it directly; protocol state never holds one.
    Nodes share their network's interner through {!Id_table}, which hides
    its size and iteration, and keep their sets as {!Bitset}s over it.

    The table is a flat open-addressing array of slots, each holding a
    dense index + 1 (0 marks an empty slot), probed linearly from an
    inline multiplicative hash of the raw identifier and kept at most half
    full. The key of an occupied slot is read back through the dense
    [index -> identifier] array, so every raw value is a valid key.

    Order contract: dense indices, {!iter} and {!extern} follow first-seen
    order only. The slot layout never reaches an output, a state key or a
    digest, so the table's capacity and hash are free to change. *)

type t

val create : ?hint:int -> unit -> t
(** Fresh empty interner. [hint] is the expected number of
    identifiers; the tables grow on demand. *)

val copy : t -> t
(** Independent snapshot: interning into the copy never affects the
    original (and vice versa). Used by the bounded checker to branch
    mutable protocol states. *)

val intern : t -> Node_id.t -> int
(** Dense index for [id], assigning the next free index ([size t]) on first
    sight. Idempotent: interning the same id twice returns the same index. *)

val find_opt : t -> Node_id.t -> int option
(** Dense index for [id] if already interned, without assigning one. *)

val mem : t -> Node_id.t -> bool

val extern : t -> int -> Node_id.t
(** Inverse of {!intern}. Raises [Invalid_argument] when the index was never
    assigned. *)

val size : t -> int
(** Number of distinct identifiers interned so far. *)

val iter : t -> (int -> Node_id.t -> unit) -> unit
(** [iter t f] applies [f index id] in ascending index (first-seen) order. *)
