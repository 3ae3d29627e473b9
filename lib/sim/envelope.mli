(** Message envelopes.

    The simulator authenticates the [src] field: a Byzantine node cannot put
    another node's identifier there (matching the model: "a Byzantine node
    cannot forge its identifier when communicating directly"). Whatever lies
    a Byzantine node tells live in the [payload]. *)

open Ubpa_util

type dest =
  | Broadcast  (** Deliver to every node present next round, sender included. *)
  | To of Node_id.t  (** Point-to-point. *)
  | Multicast of Node_id.t array
      (** Deliver to every member of the group present next round, exactly
          as one [To] per member sent back to back would: a member listed
          twice still gets one copy, an absent member gets none, and the
          sender gets one only if it is in the group. The delivery core
          routes it as one record, never as per-member copies, and wire
          accounting charges it once; the group array must not be mutated
          after sending, since the core may share it across records. *)

type 'm t = { src : Node_id.t; dst : dest; payload : 'm }

val broadcast : src:Node_id.t -> 'm -> 'm t
val send : src:Node_id.t -> dst:Node_id.t -> 'm -> 'm t
val multicast : src:Node_id.t -> group:Node_id.t array -> 'm -> 'm t

val pp :
  'm Fmt.t -> Format.formatter -> 'm t -> unit
(** [src->dst:payload], where [dst] is [*] for a broadcast, the id for a
    unicast and [{a,b,...}] for a multicast. *)
