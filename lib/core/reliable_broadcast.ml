open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  type accepted = { payload : V.t; sender : Node_id.t; accepted_round : int }

  type message_view = Payload of V.t | Present | Echo of V.t * Node_id.t
  type message = message_view

  let view m = m
  let inject m = m

  type input = V.t option
  type stimulus = Protocol.No_stimulus.t
  type output = accepted list

  (* Keyed acceptance state per (payload, sender). *)
  module Pair = struct
    type t = V.t * Node_id.t

    let compare (m, s) (m', s') =
      match V.compare m m' with 0 -> Node_id.compare s s' | c -> c
  end

  module Pair_map = Map.Make (Pair)

  type state = {
    my_payload : V.t option;
    heard_from : Interner.t;  (** senders seen so far; [size] = n_v *)
    mutable accepted : accepted list;  (** newest first *)
    mutable accepted_set : int Pair_map.t;  (** pair -> accept round *)
    mutable local_round : int;  (** rounds since this node joined, from 1 *)
  }

  let name = "reliable-broadcast"

  let copy_state st = { st with heard_from = Interner.copy st.heard_from }

  (* Canonical id-space fingerprint. [heard_from] is a set (only [size] and
     membership feed the dynamics), so it is externed and sorted; the
     [accepted] list is sorted by pair because its order only affects the
     order of entries inside the output list, never a tally or threshold —
     equal keys therefore mean equal behavior on equal future inboxes. *)
  let state_key st =
    let heard = ref [] in
    Interner.iter st.heard_from (fun _ id -> heard := id :: !heard);
    let heard = List.sort Node_id.compare !heard in
    let acc =
      List.sort
        (fun a b -> Pair.compare (a.payload, a.sender) (b.payload, b.sender))
        st.accepted
    in
    let text = Key.memo V.compare V.pp in
    let add_v b x = Buffer.add_string b (text x) in
    let add_acc b a =
      add_v b a.payload;
      Buffer.add_char b '/';
      Key.add_id b a.sender;
      Buffer.add_char b '@';
      Key.add_int b a.accepted_round
    in
    let b = Buffer.create 64 in
    Buffer.add_string b "r=";
    Key.add_int b st.local_round;
    Buffer.add_string b ";p=";
    Key.add_option b add_v st.my_payload;
    Buffer.add_string b ";h=";
    Key.add_list b ~sep:',' Key.add_id heard;
    Buffer.add_string b ";a=";
    Key.add_list b ~sep:';' add_acc acc;
    Buffer.contents b

  let init ~self:_ ~round:_ input =
    {
      my_payload = input;
      heard_from = Interner.create ();
      accepted = [];
      accepted_set = Pair_map.empty;
      local_round = 0;
    }

  let pp_message ppf = function
    | Payload m -> Fmt.pf ppf "payload(%a)" V.pp m
    | Present -> Fmt.string ppf "present"
    | Echo (m, s) -> Fmt.pf ppf "echo(%a,%a)" V.pp m Node_id.pp s

  let compare_message a b =
    match (a, b) with
    | Payload m, Payload m' -> V.compare m m'
    | Payload _, (Present | Echo _) -> -1
    | (Present | Echo _), Payload _ -> 1
    | Present, Present -> 0
    | Present, Echo _ -> -1
    | Echo _, Present -> 1
    | Echo (m, s), Echo (m', s') -> (
        match V.compare m m' with 0 -> Node_id.compare s s' | c -> c)

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  let note_senders st inbox =
    List.iter (fun (src, _) -> ignore (Interner.intern st.heard_from src)) inbox

  let step ~self:_ ~round ~stim:_ st ~inbox =
    st.local_round <- st.local_round + 1;
    match st.local_round with
    | 1 ->
        (* Round 1: designated senders broadcast their payload, everyone
           else announces presence so that n_v >= g at every node. *)
        note_senders st inbox;
        let send =
          match st.my_payload with
          | Some m -> Payload m
          | None -> Present
        in
        (st, [ (Envelope.Broadcast, send) ], Protocol.Continue)
    | 2 ->
        (* Round 2: echo payloads received directly from their sender. *)
        note_senders st inbox;
        let sends =
          List.filter_map
            (fun (src, msg) ->
              match msg with
              | Payload m -> Some (Envelope.Broadcast, Echo (m, src))
              | Present | Echo _ -> None)
            inbox
        in
        (st, sends, Protocol.Continue)
    | _ ->
        (* Rounds >= 3: per-round echo tallies against n_v thresholds. One
           pass notes every sender and tallies its echo under the dense
           index it was just given. *)
        let tally =
          Tally.create ~compare:Pair.compare ~interner:st.heard_from ()
        in
        List.iter
          (fun (src, msg) ->
            let ix = Interner.intern st.heard_from src in
            match msg with
            | Echo (m, s) -> Tally.add_index tally ix (m, s)
            | Payload _ | Present -> ())
          inbox;
        let n_v = Interner.size st.heard_from in
        let sends = ref [] in
        let newly_accepted = ref false in
        List.iter
          (fun pair ->
            let already = Pair_map.mem pair st.accepted_set in
            let count = Tally.count tally pair in
            if (not already) && Threshold.ge_third ~count ~of_:n_v then begin
              let m, s = pair in
              sends := (Envelope.Broadcast, Echo (m, s)) :: !sends
            end;
            if (not already) && Threshold.ge_two_thirds ~count ~of_:n_v then begin
              let m, s = pair in
              st.accepted_set <- Pair_map.add pair round st.accepted_set;
              st.accepted <-
                { payload = m; sender = s; accepted_round = round }
                :: st.accepted;
              newly_accepted := true
            end)
          (Tally.contents tally);
        let status =
          if !newly_accepted then Protocol.Deliver (List.rev st.accepted)
          else Protocol.Continue
        in
        (st, !sends, status)
end
