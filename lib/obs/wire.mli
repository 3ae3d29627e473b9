(** Wire-level delivery accounting.

    One accumulator per network run: every envelope a delivery core
    accepts (post-dedup — a dropped duplicate never crossed the model's
    wire twice) is charged here with its sender, recipient, round,
    message kind, and encoded size in bits. Receive-omission faults are
    applied {e after} routing, so wire counts include messages a faulty
    receiver subsequently dropped: the message was transmitted either way.

    Counters are totals plus four breakdowns — per round, per recipient
    node, per sender node, per message kind — each a [(messages, bits)]
    pair. Both directions matter for per-processor budgets: a broadcast
    accepted by [k] recipients costs its sender [k] messages and every
    one of those recipients one delivery, while a sparse unicast fan-out
    (the committee protocols) bills the sender once per addressed peer.

    {!record} charges one delivery; {!record_broadcast} charges a whole
    accepted broadcast or multicast in O(1). The network uses the second
    for both, the reference core and replays only the first; {!equal}
    between the two is the cross-core identity gated in CX1 and CX2. *)

open Ubpa_util

type t

type count = { msgs : int; bits : int }

val create : unit -> t

val record :
  t ->
  round:int ->
  sender:Node_id.t ->
  recipient:Node_id.t ->
  kind:string ->
  bits:int ->
  unit
(** One delivery of [bits] bits. Rounds are dense counters indexed from
    0: a negative [round] raises [Invalid_argument]. *)

val record_broadcast :
  t ->
  round:int ->
  sender:Node_id.t ->
  audience:Node_id.t array ->
  excluded:Node_id.t list ->
  kind:string ->
  bits:int ->
  unit
(** One broadcast or multicast of [bits] bits accepted by every node of
    [audience] (distinct ids) except [excluded] (distinct members that
    already took an equal message from [sender] this round). With [k]
    accepting recipients it charges [k] messages and [k * bits] to the
    total, the round, the sender and the kind, and one message of [bits]
    to each accepting recipient — exactly what [k] calls to {!record}
    would; nothing when [k = 0]. O(1) in [k]: each physically distinct
    [audience] array is interned once (the delivery core hands one per
    audience per round, and a handful are cached at a time), and the
    recipients' credit is settled when a breakdown is next read. *)

val messages : t -> int
(** Total deliveries recorded (equals the sum of any breakdown). *)

val bits : t -> int
(** Total bits delivered. *)

val per_round : t -> (int * count) list
(** Ascending by round. *)

val per_node : t -> (Node_id.t * count) list
(** Ascending by recipient id. *)

val per_sender : t -> (Node_id.t * count) list
(** Ascending by sender id. A broadcast accepted by [k] recipients
    contributes [k] to its sender — wire accounting prices what actually
    crossed the wire, and a broadcast in the model is [k] point-to-point
    transmissions (see docs/OBSERVABILITY.md on sparse-send semantics);
    {!record_broadcast} charges those [k] in one call. *)

val per_kind : t -> (string * count) list
(** Ascending by kind. Kinds come from the network's [classify] function;
    ["msg"] when none was given. *)

val received_by : t -> Node_id.t -> count
(** This node's recipient-side counters; zero when it never received. *)

val sent_by : t -> Node_id.t -> count
(** This node's sender-side counters; zero when it never sent. *)

val budget_of : t -> Node_id.t -> count
(** Per-node bit budget: sent plus received — the per-processor cost the
    sub-quadratic experiments (CX2) bound against √n·polylog envelopes. *)

val max_budget : t -> count
(** The largest per-node budget over every node that sent or received;
    the budget whose [bits] component is maximal. *)

val equal : t -> t -> bool
(** Totals and all four breakdowns agree. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Accepts documents written before the per-sender breakdown existed
    (their sender counters load empty). Rejects rounds outside
    [0 .. 10_000_000]. Node rows with zero messages are
    dropped, since no recording can produce them. *)
