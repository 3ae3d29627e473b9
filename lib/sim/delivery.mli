(** Per-round message delivery.

    Both cores implement the same delivery contract over one round's
    worth of envelopes:

    - only nodes in [present] receive anything;
    - a recipient sees at most one copy of each [(sender, payload)] pair,
      where payload equality is the protocol's [equal_message];
    - each inbox is sorted by sender id, with messages from the same sender
      kept in send order;
    - the returned count is the number of (deduplicated) deliveries, i.e.
      the total length of all inboxes.

    {!route_arena} is the simulator's only delivery engine: a grow-only
    flat-arena state reused across rounds, broadcasts kept as single
    logical records expanded lazily at read time, unicasts deduped by a
    compaction pass over sorted per-recipient slices, built for the
    n ≈ 10,000 SCALE sweeps. {!route_reference} is the seed engine's
    list-scan implementation, kept verbatim as the executable
    specification — the single differential oracle the tests, the
    bounded checker, schedule replay and the bench cross-core claims
    route through. *)

open Ubpa_util

type 'm on_deliver = recipient:Node_id.t -> src:Node_id.t -> 'm -> unit
(** Per-delivery accounting hook, invoked once per accepted delivery, at
    the point where the core decides it counts. {!route_reference} fires
    it in scan order; {!route_arena} fires it for unicasts only, grouped
    by recipient, while it dedups the sealed slices. Consumers must not
    depend on the order — the repo's are additive counters. *)

type 'm on_broadcast =
  src:Node_id.t -> 'm -> k:int -> excluded:Node_id.t list -> unit
(** Per-broadcast accounting hook: one accepted broadcast reached [k > 0]
    recipients — every present node except [excluded], the distinct
    recipients that already took an equal unicast from [src] earlier in
    the round. Fired once per accepted broadcast, after every unicast
    has been deduped, so [k] and [excluded] are final. *)

val route_reference :
  ?on_deliver:'m on_deliver ->
  equal:('m -> 'm -> bool) ->
  present:Node_id.Set.t ->
  envelopes:'m Envelope.t list ->
  unit ->
  (Node_id.t * 'm) list Node_id.Map.t * int
(** The seed engine's core: list inboxes, linear duplicate scan per push.
    Quadratic in per-recipient traffic. [on_deliver] fires once per
    counted delivery, broadcasts included, so its calls replayed through
    {!Ubpa_obs.Wire.record} are the wire counters the arena core must
    reproduce. *)

type 'm arena_state
(** Round state: interner, presence stamps, flat record arenas and CSR
    inbox slices, all grow-only and reused across rounds. Create one per
    network and feed it every round through {!route_arena}; a
    steady-state round allocates only the inbox lists actually read. *)

val arena_create : ?hint:int -> unit -> 'm arena_state
(** Fresh arena state. [hint] sizes the interner and backing arrays to
    the expected participant count. *)

type 'm view
(** One routed round, borrowed from an {!arena_state}: valid until the
    state's next {!route_arena} call. Inboxes are expanded on demand from
    broadcast records and unicast slices — reading is the only per-inbox
    allocation. *)

val route_arena :
  ?on_deliver:'m on_deliver ->
  ?on_broadcast:'m on_broadcast ->
  state:'m arena_state ->
  equal:('m -> 'm -> bool) ->
  present:Node_id.Set.t ->
  envelopes:'m Envelope.t list ->
  unit ->
  'm view
(** Scans [envelopes] once — broadcasts are deduped there, unicasts to
    present recipients only appended — then seals the unicasts into
    per-recipient CSR slices sorted by (sender, send order), dedups each
    slice in one compaction pass that also builds the broadcast
    exclusion lists, and returns the round's read view. [on_deliver]
    fires once per accepted unicast during that pass. A broadcast is
    accepted as one record, charged [|present|] minus its exclusions to
    the delivered count without fanning out, and reported once through
    [on_broadcast] after the pass. The view matches {!route_reference}
    on the same input: same inboxes, same count, and hooks whose
    expansion is its [on_deliver] multiset — the multiset, not the call
    order. *)

val view_delivered : 'm view -> int
(** Total deliveries this round — what {!route_reference} returns. *)

val view_inbox : 'm view -> Node_id.t -> (Node_id.t * 'm) list
(** [view_inbox v id] expands [id]'s inbox: a merge of the broadcast
    records (minus exclusions) with [id]'s unicast slice, sorted by
    (sender id, send order) exactly like {!route_reference}'s inboxes.
    Empty for absent or unknown recipients. *)

val view_present : 'm view -> Node_id.t list
(** The round's present set in ascending id order. *)
