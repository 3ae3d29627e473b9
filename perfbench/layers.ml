(* Per-layer instrumentation, attached from outside the library.

   Nothing here reaches into the engine: every span is recorded around a
   public seam the library already exposes — the protocol's [step] (a
   functor re-exporting the protocol with a timed step), a Byzantine
   strategy's [make] closure, the checker model's [copy_state] and
   [state_key], trace subscribers and the monitor's feed. The engine's
   own share is what is left of the round time once those spans are
   taken out. *)

open Ubpa_util
open Ubpa_sim

let now = Unix.gettimeofday

type counters = {
  mutable step_s : float;
  mutable step_calls : int;
  mutable step_inbox : int;
  mutable step_sends : int;
  mutable adv_s : float;
  mutable adv_calls : int;
  mutable adv_sends : int;
  mutable capture_s : float;  (** bookkeeping of the traced run itself *)
  mutable copy_s : float;
  mutable key_s : float;
  mutable monitor_s : float;
  mutable monitor_event_s : float;  (** [monitor_s] spent inside rounds *)
  mutable monitor_observations : int;
  mutable monitor_events : int;
  mutable trace_events : int;
}

let c =
  {
    step_s = 0.;
    step_calls = 0;
    step_inbox = 0;
    step_sends = 0;
    adv_s = 0.;
    adv_calls = 0;
    adv_sends = 0;
    capture_s = 0.;
    copy_s = 0.;
    key_s = 0.;
    monitor_s = 0.;
    monitor_event_s = 0.;
    monitor_observations = 0;
    monitor_events = 0;
    trace_events = 0;
  }

let reset () =
  c.step_s <- 0.;
  c.step_calls <- 0;
  c.step_inbox <- 0;
  c.step_sends <- 0;
  c.adv_s <- 0.;
  c.adv_calls <- 0;
  c.adv_sends <- 0;
  c.capture_s <- 0.;
  c.copy_s <- 0.;
  c.key_s <- 0.;
  c.monitor_s <- 0.;
  c.monitor_event_s <- 0.;
  c.monitor_observations <- 0;
  c.monitor_events <- 0;
  c.trace_events <- 0

(* The delivered multiset as the receivers saw it: one (round, sender,
   recipient, payload) row per inbox entry, in flat growable columns so
   millions of rows cost four words each. *)
module Capture = struct
  type 'm t = {
    mutable len : int;
    mutable round : int array;
    mutable src : Node_id.t array;
    mutable dst : Node_id.t array;
    mutable msg : 'm array;
  }

  let create () =
    { len = 0; round = [||]; src = [||]; dst = [||]; msg = [||] }

  let clear t =
    t.len <- 0;
    t.round <- [||];
    t.src <- [||];
    t.dst <- [||];
    t.msg <- [||]

  let grow t filler =
    let cap = max 1024 (2 * t.len) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.round <- extend t.round 0;
    t.src <- extend t.src (Node_id.of_int 0);
    t.dst <- extend t.dst (Node_id.of_int 0);
    t.msg <- extend t.msg filler

  let add_inbox t ~round ~dst inbox =
    List.iter
      (fun (src, m) ->
        if t.len = Array.length t.round then grow t m;
        let i = t.len in
        t.round.(i) <- round;
        t.src.(i) <- src;
        t.dst.(i) <- dst;
        t.msg.(i) <- m;
        t.len <- i + 1)
      inbox

  let iter t f =
    for i = 0 to t.len - 1 do
      f ~round:t.round.(i) ~sender:t.src.(i) ~recipient:t.dst.(i) t.msg.(i)
    done
end

(* The protocol with a timed [step]. Every type is [P]'s own, so the
   wrapped protocol accepts the same inputs, strategies and monitors and
   produces the same outputs. [capture] switches the inbox recording on
   (the simulator workloads) or off (the checker, which keeps no wire
   accounting to replay). *)
module Timed (P : Protocol.S) = struct
  include P

  let capture = ref true
  let delivered : P.message Capture.t = Capture.create ()

  let step ~self ~round ~stim state ~inbox =
    let t0 = now () in
    let ((_, sends, _) as r) = P.step ~self ~round ~stim state ~inbox in
    let t1 = now () in
    c.step_s <- c.step_s +. (t1 -. t0);
    c.step_calls <- c.step_calls + 1;
    c.step_inbox <- c.step_inbox + List.length inbox;
    c.step_sends <- c.step_sends + List.length sends;
    if !capture then Capture.add_inbox delivered ~round ~dst:self inbox;
    c.capture_s <- c.capture_s +. (now () -. t1);
    r
end

(* A Byzantine strategy whose instantiation and per-round moves are
   timed, and whose inbox is added to [cap]. The name is kept, so join
   events read the same as in the untraced run. *)
let strategy (cap : 'm Capture.t) (s : 'm Strategy.t) : 'm Strategy.t =
  {
    s with
    make =
      (fun rng id ->
        let t0 = now () in
        let act = s.make rng id in
        c.adv_s <- c.adv_s +. (now () -. t0);
        fun (view : 'm Strategy.view) ->
          let t0 = now () in
          let out = act view in
          let t1 = now () in
          c.adv_s <- c.adv_s +. (t1 -. t0);
          c.adv_calls <- c.adv_calls + 1;
          c.adv_sends <- c.adv_sends + List.length out;
          Capture.add_inbox cap ~round:view.round ~dst:view.self view.inbox;
          c.capture_s <- c.capture_s +. (now () -. t1);
          out);
  }

(* A checker model whose step, state copy and state fingerprint are
   timed; everything else is [M]'s own. *)
module Timed_model (M : Ubpa_check.Model.S) = struct
  module P = Timed (M.P)

  let () = P.capture := false
  let name = M.name
  let roots = M.roots
  let palette = M.palette

  let copy_state s =
    let t0 = now () in
    let r = M.copy_state s in
    c.copy_s <- c.copy_s +. (now () -. t0);
    r

  let state_key s =
    let t0 = now () in
    let r = M.state_key s in
    c.key_s <- c.key_s +. (now () -. t0);
    r

  let input_key = M.input_key
  let output_key = M.output_key
  let recipient_symmetric = M.recipient_symmetric
  let pinned = M.pinned
  let properties = M.properties
end

(* Trace subscribers: count every event, and feed the monitor with the
   time it takes recorded. *)
let count_events tr =
  if Trace.enabled tr then
    Trace.subscribe tr (fun _ -> c.trace_events <- c.trace_events + 1)

let timed_observe_event monitor ev =
  let t0 = now () in
  Ubpa_monitor.observe_event monitor ev;
  let d = now () -. t0 in
  c.monitor_s <- c.monitor_s +. d;
  c.monitor_event_s <- c.monitor_event_s +. d;
  c.monitor_events <- c.monitor_events + 1

let timed_observe observe =
  let t0 = now () in
  observe ();
  c.monitor_s <- c.monitor_s +. (now () -. t0);
  c.monitor_observations <- c.monitor_observations + 1
