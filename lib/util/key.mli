(** Canonical fingerprints written straight into one [Buffer].

    The bounded checker deduplicates configurations by string key, so a
    key is built once per explored configuration and per node. These
    writers append ids, integers and lists with fixed separators and never
    go through [Format]'s layout engine: a key never depends on margins,
    break hints or any other pretty-printer state. Only {!memo} formats,
    for values the caller can only print (a protocol's opinion type or
    message), and it keeps every break hint on the line. *)

val add_int : Buffer.t -> int -> unit
(** Decimal, as [%d]. *)

val add_id : Buffer.t -> Node_id.t -> unit
(** [#<id>], as {!Node_id.pp}. *)

val add_list :
  Buffer.t -> sep:char -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val add_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
(** [None] is written as [-]. *)

val memo : ('a -> 'a -> int) -> 'a Fmt.t -> 'a -> string
(** [memo compare pp] renders values with [pp] on one line: no break hint
    inside [pp] ever becomes a newline (explicit newlines and vertical
    boxes still print as such). A value
    equal under [compare] to one already rendered gets the same string
    back without formatting. Each application starts an empty memo,
    searched linearly: keep one per key, or per batch of keys over a small
    vocabulary. *)
