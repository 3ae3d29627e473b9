(** Run metrics: rounds executed, message complexity, and wall-clock time.

    Messages are counted in two ways: [sends] counts send operations (one
    per broadcast instruction), [delivered] counts point-to-point deliveries
    (a broadcast to [k] present nodes contributes [k]). Message-complexity
    tables use [delivered], matching the convention of the classic papers.

    The engine additionally records how long each round took on the wall
    clock, so benchmark artifacts can track the perf trajectory of the
    simulator itself. *)

open Ubpa_util

type t

val create : unit -> t
val rounds : t -> int
val sends_correct : t -> int
val sends_byzantine : t -> int
val delivered : t -> int
val delivered_per_round : t -> (int * int) list
(** [(round, delivered-in-that-round)] rows, ascending. *)

val wire_msgs : t -> int
(** Messages that crossed the wire: deduplicated deliveries {e before}
    receive-omission faults (the message was transmitted even if a faulty
    receiver then dropped it). Equals [delivered] under fault-free runs. *)

val wire_bits : t -> int
(** Total bits that crossed the wire, priced by the protocol's
    [encoded_bits]; same pre-receive-omission semantics as
    {!wire_msgs}. *)

val wire_bits_per_round : t -> (int * int) list
(** [(round, wire-bits-in-that-round)] rows, ascending. *)

val kinds : t -> (string * int) list
(** Per-message-kind send counts, sorted by kind; populated only when the
    engine was created with a [classify] function. *)

val elapsed_ms : t -> float
(** Total wall-clock milliseconds spent executing rounds. *)

val round_times_ms : t -> (int * float) list
(** [(round, wall-clock-ms)] rows, ascending. *)

(** Engine-side recording. *)

val tick_round : t -> unit
val record_send : t -> byzantine:bool -> unit
val record_kind : t -> string -> unit
val record_delivered : t -> round:int -> int -> unit

val record_wire : t -> round:int -> count:int -> bits:int -> unit
(** [count] messages totalling [bits] crossed the wire — one unicast, or
    one broadcast accepted by [count] recipients. *)

val record_round_time : t -> round:int -> float -> unit
(** Wall-clock milliseconds the given round took. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** Stable schema:
    [{"rounds", "sends_correct", "sends_byzantine", "delivered",
      "wire_msgs", "wire_bits", "elapsed_ms",
      "delivered_per_round": [[round, count], ...],
      "wire_bits_per_round": [[round, bits], ...],
      "round_times_ms": [[round, ms], ...], "kinds": {kind: count}}]. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; used by artifact tooling and tests. The wire
    fields are optional on input (they postdate the v1 artifacts) and
    default to zero/empty. *)
