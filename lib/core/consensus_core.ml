open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  type message =
    | Init
    | Cand_echo of Node_id.t
    | Input of V.t
    | Prefer of V.t
    | Strongprefer of V.t
    | Opinion of V.t

  let pp_message ppf = function
    | Init -> Fmt.string ppf "init"
    | Cand_echo p -> Fmt.pf ppf "echo(%a)" Node_id.pp p
    | Input x -> Fmt.pf ppf "input(%a)" V.pp x
    | Prefer x -> Fmt.pf ppf "prefer(%a)" V.pp x
    | Strongprefer x -> Fmt.pf ppf "strongprefer(%a)" V.pp x
    | Opinion x -> Fmt.pf ppf "opinion(%a)" V.pp x

  (* Rank constructors, then compare arguments with the value's own order. *)
  let tag = function
    | Init -> 0
    | Cand_echo _ -> 1
    | Input _ -> 2
    | Prefer _ -> 3
    | Strongprefer _ -> 4
    | Opinion _ -> 5

  let compare_message a b =
    match (a, b) with
    | Init, Init -> 0
    | Cand_echo p, Cand_echo q -> Node_id.compare p q
    | Input x, Input y
    | Prefer x, Prefer y
    | Strongprefer x, Strongprefer y
    | Opinion x, Opinion y ->
        V.compare x y
    | _ -> Int.compare (tag a) (tag b)

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  type status = Running | Decided of V.t

  type t = {
    self : Node_id.t;
    rotor : Rotor_core.t;
    mutable x_v : V.t;
    mutable local_round : int;
    ids : Id_table.t;  (** the network's shared identifier index *)
    members : Bitset.t;
        (** senders heard from, over [ids]: fed through round 3, then
            frozen as the membership snapshot *)
    mutable members_asc : Node_id.t list;  (** ascending, cached at freeze *)
    mutable n_v : int;
    mutable cand_buffer : (Node_id.t * Node_id.t) list;
        (** (sender, candidate) echoes accumulated for the next rotor round *)
    mutable coordinator : Node_id.t option;
        (** selected at position 4, consulted at position 5 *)
    mutable strong_stash : (Node_id.t * V.t) list;
        (** strongprefer messages delivered at position 4, counted at 5 *)
    mutable sent_input : V.t option;  (** my broadcast at position 1 *)
    mutable sent_prefer : V.t option;  (** my broadcast at position 2 *)
    mutable sent_strong : V.t option;  (** my broadcast at position 3 *)
    mutable phase_silent : Bitset.t;
        (** members (by index) that sent no [input] this phase —
            terminated (or byz-silent) nodes whose messages get
            substituted *)
  }

  let create ~self ~ids ~input =
    {
      self;
      rotor = Rotor_core.create ~ids;
      x_v = input;
      local_round = 0;
      ids;
      members = Bitset.create ();
      members_asc = [];
      n_v = 0;
      cand_buffer = [];
      coordinator = None;
      strong_stash = [];
      sent_input = None;
      sent_prefer = None;
      sent_strong = None;
      phase_silent = Bitset.create ();
    }

  let opinion t = t.x_v

  (* The identifiers of an index set, ascending. *)
  let sorted_ids t set =
    Bitset.fold set ~init:[] ~f:(fun acc ix -> Id_table.id t.ids ix :: acc)
    |> List.sort Node_id.compare

  let members t = t.members_asc
  let n_v t = t.n_v

  let copy t =
    {
      t with
      rotor = Rotor_core.copy t.rotor;
      members = Bitset.copy t.members;
      phase_silent = Bitset.copy t.phase_silent;
    }

  (* Canonical id-space fingerprint for the bounded checker's dedup.
     Set-semantics fields ([members], [phase_silent], the echo and
     strongprefer buffers — every consumer runs them through a tally whose
     thresholds and deterministic tie-break are insertion-order free) are
     sorted, the bitsets by identifier (never by shared index); everything
     else is copied verbatim. Fixed separators, written straight into the
     caller's buffer. *)
  let add_key b t =
    let members = sorted_ids t t.members in
    let silent = sorted_ids t t.phase_silent in
    let pair_cmp (a, b) (c, d) =
      match Node_id.compare a c with 0 -> Node_id.compare b d | x -> x
    in
    let cands = List.sort pair_cmp t.cand_buffer in
    let stash =
      List.sort
        (fun (a, x) (b, y) ->
          match Node_id.compare a b with 0 -> V.compare x y | c -> c)
        t.strong_stash
    in
    let text = Key.memo V.compare V.pp in
    let add_v b x = Buffer.add_string b (text x) in
    let add_ids = Key.add_list b ~sep:',' Key.add_id in
    let field name = Buffer.add_string b name in
    field "r=";
    Key.add_int b t.local_round;
    field ";x=";
    add_v b t.x_v;
    field ";n=";
    Key.add_int b t.n_v;
    field ";m=";
    add_ids members;
    field ";rot=";
    Rotor_core.add_fingerprint b t.rotor;
    field ";cb=";
    Key.add_list b ~sep:';'
      (fun b (s, p) ->
        Key.add_id b s;
        Buffer.add_char b '>';
        Key.add_id b p)
      cands;
    field ";co=";
    Key.add_option b Key.add_id t.coordinator;
    field ";ss=";
    Key.add_list b ~sep:';'
      (fun b (s, x) ->
        Key.add_id b s;
        Buffer.add_char b ':';
        add_v b x)
      stash;
    field ";si=";
    Key.add_option b add_v t.sent_input;
    field ";sp=";
    Key.add_option b add_v t.sent_prefer;
    field ";st=";
    Key.add_option b add_v t.sent_strong;
    field ";ps=";
    add_ids silent

  let phase t =
    if t.local_round < 3 then 0 else ((t.local_round - 3) / 5) + 1

  let position t = ((t.local_round - 3) mod 5) + 1

  (* Tally the [(src, x)] pairs [each_sent] feeds to its argument, then
     substitute [my_send] — the message this node itself sent of that kind
     — for every member of [eligible] (a predicate over member indices)
     that sent nothing, per the caption of Algorithm 3. Returns the tally
     and the index set of real senders. By the time this runs membership
     is frozen and the inbox is filtered to members. *)
  let tally_substituted t ~my_send ~eligible each_sent =
    let tally = Tally.create ~compare:V.compare ~ids:t.ids in
    let spoke = Bitset.create () in
    each_sent (fun src x ->
        let ix = Id_table.index t.ids src in
        Bitset.add spoke ix;
        Tally.add_index tally ix x);
    (match my_send with
    | None -> ()
    | Some x ->
        Bitset.iter t.members (fun ix ->
            if eligible ix && not (Bitset.mem spoke ix) then
              Tally.add_index tally ix x));
    (tally, spoke)

  (* Count messages of one kind from this round's inbox, with silent
     members substituted ({!tally_substituted}). *)
  let tally_with_substitution t ~extract ~my_send ~eligible inbox =
    tally_substituted t ~my_send ~eligible (fun add ->
        List.iter
          (fun (src, msg) ->
            match extract msg with Some x -> add src x | None -> ())
          inbox)

  let buffer_cand_echoes t inbox =
    List.iter
      (fun (src, msg) ->
        match msg with
        | Cand_echo p -> t.cand_buffer <- (src, p) :: t.cand_buffer
        | _ -> ())
      inbox

  let step t ~inbox =
    t.local_round <- t.local_round + 1;
    (* Membership discipline: before round 3 every sender is recorded; from
       round 3 on, messages from non-members are discarded. *)
    let inbox =
      if t.local_round <= 3 then begin
        List.iter
          (fun (src, _) -> Bitset.add t.members (Id_table.index t.ids src))
          inbox;
        inbox
      end
      else
        List.filter
          (fun (src, _) -> Bitset.mem t.members (Id_table.index t.ids src))
          inbox
    in
    match t.local_round with
    | 1 -> ([ (Envelope.Broadcast, Init) ], Running)
    | 2 ->
        let sends =
          List.filter_map
            (fun (src, msg) ->
              match msg with
              | Init -> Some (Envelope.Broadcast, Cand_echo src)
              | _ -> None)
            inbox
        in
        (sends, Running)
    | _ -> (
        if t.local_round = 3 then begin
          (* Freeze membership: [members] admits no sender after this
             round (the round >= 4 filter above rejects them), whatever
             other nodes add to the shared table. *)
          t.n_v <- Bitset.count t.members;
          t.members_asc <- sorted_ids t t.members
        end;
        buffer_cand_echoes t inbox;
        match position t with
        | 1 ->
            (* Fresh phase: broadcast the current opinion. *)
            t.sent_input <- Some t.x_v;
            t.sent_prefer <- None;
            t.sent_strong <- None;
            t.coordinator <- None;
            t.strong_stash <- [];
            ([ (Envelope.Broadcast, Input t.x_v) ], Running)
        | 2 ->
            let tally, spoke =
              tally_with_substitution t
                ~extract:(function Input x -> Some x | _ -> None)
                ~my_send:t.sent_input
                ~eligible:(fun _ -> true)
                inbox
            in
            (* Members without an input this phase are terminated (or
               byz-silent); their later messages are substituted too. *)
            let silent = Bitset.create () in
            Bitset.iter t.members (fun ix ->
                if not (Bitset.mem spoke ix) then Bitset.add silent ix);
            t.phase_silent <- silent;
            let sends =
              match Tally.max_by_count tally with
              | Some (x, count)
                when Threshold.ge_two_thirds ~count ~of_:t.n_v ->
                  t.sent_prefer <- Some x;
                  [ (Envelope.Broadcast, Prefer x) ]
              | _ -> []
            in
            (sends, Running)
        | 3 ->
            let tally, _ =
              tally_with_substitution t
                ~extract:(function Prefer x -> Some x | _ -> None)
                ~my_send:t.sent_prefer
                ~eligible:(Bitset.mem t.phase_silent)
                inbox
            in
            let sends =
              match Tally.max_by_count tally with
              | Some (x, count) when Threshold.ge_third ~count ~of_:t.n_v ->
                  t.x_v <- x;
                  if Threshold.ge_two_thirds ~count ~of_:t.n_v then begin
                    t.sent_strong <- Some x;
                    [ (Envelope.Broadcast, Strongprefer x) ]
                  end
                  else []
              | _ -> []
            in
            (sends, Running)
        | 4 ->
            (* Rotor round: consume buffered candidate echoes, stash the
               strongprefer messages for position 5. *)
            t.strong_stash <-
              List.filter_map
                (fun (src, msg) ->
                  match msg with Strongprefer x -> Some (src, x) | _ -> None)
                inbox;
            let echoes = t.cand_buffer in
            t.cand_buffer <- [];
            let res =
              Rotor_core.rotor_round t.rotor ~self:t.self ~n_v:t.n_v ~echoes
            in
            t.coordinator <- res.selected;
            let sends =
              List.map (fun p -> (Envelope.Broadcast, Cand_echo p)) res.relay_echoes
            in
            let sends =
              if res.i_am_coordinator then
                (Envelope.Broadcast, Opinion t.x_v) :: sends
              else sends
            in
            (sends, Running)
        | _ ->
            (* Position 5: resolve the phase. The strongprefer tally comes
               from position 4's inbox; the coordinator's opinion arrives
               now. *)
            let tally, _ =
              (* Substitute my own strongprefer for phase-silent members. *)
              tally_substituted t ~my_send:t.sent_strong
                ~eligible:(Bitset.mem t.phase_silent) (fun add ->
                  List.iter (fun (src, x) -> add src x) t.strong_stash)
            in
            let coordinator_opinion =
              match t.coordinator with
              | None -> None
              | Some p ->
                  List.fold_left
                    (fun acc (src, msg) ->
                      match msg with
                      | Opinion x when Node_id.equal src p -> Some x
                      | _ -> acc)
                    None inbox
            in
            let best = Tally.max_by_count tally in
            (match best with
            | Some (x, count) when Threshold.ge_third ~count ~of_:t.n_v ->
                ignore x
            | _ -> (
                (* No value reached n_v/3 strong preferences: adopt the
                   coordinator's opinion. *)
                match coordinator_opinion with
                | Some c -> t.x_v <- c
                | None -> ()));
            let status =
              match best with
              | Some (x, count)
                when Threshold.ge_two_thirds ~count ~of_:t.n_v ->
                  Decided x
              | _ -> Running
            in
            ([], status))
end
