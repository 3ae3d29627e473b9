(** Per-round message delivery.

    Both cores implement the same delivery contract over one round's
    worth of envelopes, for all three destination shapes:

    - only nodes in [present] receive anything: a unicast reaches its
      addressee, a broadcast every present node (the sender included),
      a multicast every present member of its group;
    - a multicast delivers exactly what one unicast per group member,
      sent back to back in group order, would: duplicate members and
      absent members add nothing;
    - a recipient sees at most one copy of each [(sender, payload)] pair,
      where payload equality is the protocol's [equal_message] — the first
      one in send order, whatever its destination shape;
    - each inbox is sorted by sender id, with messages from the same sender
      kept in send order;
    - the returned count is the number of (deduplicated) deliveries, i.e.
      the total length of all inboxes.

    {!route_arena} is the simulator's only delivery engine: a grow-only
    flat-arena state reused across rounds, broadcasts and multicasts kept
    as one record kind — a single logical record with an audience,
    expanded lazily at read time — and unicasts deduped by a compaction
    pass over sorted per-recipient slices, built for the n ≈ 10,000
    SCALE sweeps. {!route_reference} is the seed engine's list-scan
    implementation, a multicast pushed member by member, kept as the
    executable specification — the single differential oracle the
    tests, the bounded checker, schedule replay and the bench cross-core
    claims route through. *)

open Ubpa_util

type 'm on_deliver = recipient:Node_id.t -> src:Node_id.t -> 'm -> unit
(** Per-delivery accounting hook, invoked once per accepted delivery, at
    the point where the core decides it counts. {!route_reference} fires
    it in scan order; {!route_arena} fires it for unicasts only, grouped
    by recipient, while it dedups the sealed slices. Consumers must not
    depend on the order — the repo's are additive counters. *)

type 'm on_broadcast =
  src:Node_id.t ->
  'm ->
  audience:Node_id.t array ->
  k:int ->
  excluded:Node_id.t list ->
  unit
(** Per-record accounting hook: one accepted broadcast or multicast
    reached [k > 0] recipients — every member of [audience] except
    [excluded], the distinct members that already took an equal message
    from [src] earlier in the round. [audience] is the record's distinct
    present recipients: the present set for a broadcast, the group's
    present members for a multicast. Every record with the same audience
    in one round gets the same physical array, so a consumer can intern
    it once; it must not be mutated. Fired once per accepted record,
    after every unicast has been deduped, so [k] and [excluded] are
    final. *)

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
(** Scans [envelopes] once — a broadcast or multicast becomes one record
    unless an earlier equal record of its sender covers its whole
    audience, unicasts to present recipients are only appended — then
    seals the unicasts into per-recipient CSR slices sorted by (sender,
    send order), dedups each slice in one compaction pass that also
    builds the record exclusion lists, and returns the round's read view.
    [on_deliver] fires once per accepted unicast during that pass. A
    record is charged its audience size minus its exclusions to the
    delivered count without fanning out, and reported once through
    [on_broadcast] after the pass. The view matches {!route_reference}
    on the same input: same inboxes, same count, and hooks whose
    expansion is its [on_deliver] multiset — the multiset, not the call
    order. *)

val view_delivered : 'm view -> int
(** Total deliveries this round — what {!route_reference} returns. *)

val view_inbox : 'm view -> Node_id.t -> (Node_id.t * 'm) list
(** [view_inbox v id] expands [id]'s inbox: a merge of the records whose
    audience holds [id] (minus exclusions) with [id]'s unicast slice, sorted by
    (sender id, send order) exactly like {!route_reference}'s inboxes.
    Empty for absent or unknown recipients. *)

val view_present : 'm view -> Node_id.t list
(** The round's present set in ascending id order. *)
