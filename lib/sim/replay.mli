(** Schedule replay: the lockstep simulator as an oracle for the wire.

    The networked runtime ({!Ubpa_runtime}) records, per node per round,
    the inbox it actually consumed and the sends its protocol instance
    emitted. This module feeds that recorded delivery schedule back
    through the reference delivery core and re-steps the pure
    state machines, flagging the {e first} round where the wire diverged
    from the model:

    - {e present-set check} — the runtime stepped exactly the nodes the
      oracle considers alive (halts propagate identically);
    - {e inbox check} — what each node received over the wire is exactly
      what {!Delivery.route_reference} routes from the previous round's
      sends (same dedup, same sender-sorted order);
    - {e send check} — the protocol instance driven by the runtime emitted
      exactly the sends the oracle's replayed state machine emits.

    {b Delivered mode} ([~delivered:true]) relaxes the first two checks
    for runs where injected wire faults or deadline timeouts legitimately
    created holes: the recorded round may step a {e sub-population} (a
    node that vanishes is treated as crashed from that round on, and
    must stay gone), and each recorded inbox must be a {e sub-schedule}
    — a subsequence — of what lockstep routing would have delivered.
    Faults only ever remove deliveries, so an extra, altered or
    reordered message is still a divergence; the protocol step then runs
    on the {e recorded} inbox, making the oracle's verdict "the pure
    state machines, fed exactly what the faulty wire delivered". The
    send check stays exact in both modes.

    The returned outputs/decide rounds are the oracle's verdict; callers
    ({!Ubpa_harness.Runtime_exec}, bench RT1) additionally require them to
    equal the networked run's — decision equivalence is claim-gated, not
    assumed. *)

open Ubpa_util

module Make (P : Protocol.S) : sig
  type node_round = {
    nr_inbox : (Node_id.t * P.message) list;
        (** Post-dedup, sorted by sender id — the delivery-core contract. *)
    nr_sends : (Envelope.dest * P.message) list;  (** In emit order. *)
  }

  type schedule = {
    sc_nodes : (Node_id.t * P.input) list;
        (** Every node with its input; all join in round 1. *)
    sc_rounds : node_round Node_id.Map.t list;
        (** One map per executed round (round [i + 1] at index [i]), over
            exactly the nodes that stepped in that round. *)
  }

  type divergence = { d_round : int; d_node : Node_id.t option; d_what : string }

  type outcome = {
    ok : bool;  (** No divergence anywhere in the schedule. *)
    divergence : divergence option;  (** The first one, if any. *)
    outputs : (Node_id.t * P.output) list;
        (** Latest oracle output per node, ascending id. *)
    decide_rounds : (Node_id.t * int) list;
        (** First output round per node, ascending id. *)
    halted : (Node_id.t * int) list;
    missing : (Node_id.t * int) list;
        (** Delivered mode only: nodes that vanished from the schedule,
            with the first round they were absent — the oracle's view of
            crashed processes. Always empty in exact mode. *)
    rounds : int;
    wire : Ubpa_obs.Wire.t;
        (** Wire counters recorded at the oracle's accept points — totals
            and breakdowns comparable ({!Ubpa_obs.Wire.equal}) with the
            runtime's own accounting and the simulator's. In delivered
            mode they are recorded from the recorded inboxes (what the
            wire actually handed the protocols), matching the runtime's
            own accounting by construction of the same data. *)
  }

  val replay : ?delivered:bool -> schedule -> outcome
  (** Replay never raises on divergence: it reports, like a monitor.
      [delivered] (default false) switches from exact lockstep
      equivalence to sub-schedule equivalence — see the module doc. *)

  val eq_dest : Envelope.dest -> Envelope.dest -> bool

  val pp_divergence : Format.formatter -> divergence -> unit
end
