open Ubpa_util

type 'm on_deliver = recipient:Node_id.t -> src:Node_id.t -> 'm -> unit

type 'm on_broadcast =
  src:Node_id.t ->
  'm ->
  audience:Node_id.t array ->
  k:int ->
  excluded:Node_id.t list ->
  unit

let by_sender (a, _) (b, _) = Node_id.compare a b

(* Seed-engine core, kept as the executable specification. The final
   [List.sort] is OCaml's stable sort, so same-sender messages stay in
   send order — the arena core must match that, not just the multiset.

   [on_deliver] fires at the accept point — after the dedup decided the
   delivery counts — with the recipient, sender, and payload, at exactly
   the point where the core does [incr delivered]. Replaying those calls
   through [Wire.record] is the oracle the arena core's once-per-broadcast
   accounting is checked against. *)
let route_reference ?(on_deliver = fun ~recipient:_ ~src:_ _ -> ()) ~equal
    ~present ~envelopes () =
  let inboxes : (Node_id.t * 'm) list ref Node_id.Map.t =
    Node_id.Set.fold
      (fun id acc -> Node_id.Map.add id (ref []) acc)
      present Node_id.Map.empty
  in
  let delivered = ref 0 in
  let push recipient (env : 'm Envelope.t) =
    match Node_id.Map.find_opt recipient inboxes with
    | None -> ()
    | Some box ->
        let dup =
          List.exists
            (fun (src, payload) ->
              Node_id.equal src env.src && equal payload env.payload)
            !box
        in
        if not dup then begin
          box := (env.src, env.payload) :: !box;
          incr delivered;
          on_deliver ~recipient ~src:env.src env.payload
        end
  in
  List.iter
    (fun (env : 'm Envelope.t) ->
      match env.dst with
      | Envelope.To id -> push id env
      | Envelope.Broadcast -> Node_id.Set.iter (fun id -> push id env) present
      | Envelope.Multicast group -> Array.iter (fun id -> push id env) group)
    envelopes;
  let sorted = Node_id.Map.map (fun box -> List.sort by_sender (List.rev !box)) inboxes in
  (sorted, !delivered)

(* -------------------------------------------------------------------- *)
(* The arena core: the simulator's delivery engine.                     *)
(*                                                                       *)
(* Rebuilding per-recipient hashtables and a Node_id.Map every round is  *)
(* fine at n ≈ 300 and dominates the profile at n ≈ 10,000. The arena    *)
(* core keeps one grow-only state across rounds:                         *)
(*                                                                       *)
(*   - recipients are interned once (the interner persists and only      *)
(*     grows), and per-round presence is a stamp in a flat array —       *)
(*     nothing is cleared between rounds, the stamp just moves;          *)
(*   - a broadcast is ONE logical record (sender, payload, audience,     *)
(*     exclusions), expanded lazily when an inbox is read, never fanned  *)
(*     out into n physical copies. A multicast is the same record with   *)
(*     a group audience: a presence mask over recipient indices, built   *)
(*     once per distinct group array per round; a broadcast's audience   *)
(*     is the whole present set. The scan drops a record outright when   *)
(*     an earlier equal record of its sender already covers its whole    *)
(*     audience (a broadcast, or the same group), found in a short       *)
(*     per-sender payload list;                                          *)
(*   - the scan appends every unicast to a present recipient to flat     *)
(*     parallel arenas and decides nothing about it; [seal] counting-    *)
(*     sorts them into per-recipient CSR slices — (offset, length)       *)
(*     ranges into one position array — ordered by (sender, seq), and    *)
(*     dedups each slice in one compaction pass, so reading an inbox is  *)
(*     a merge of two sorted cursors.                                    *)
(*                                                                       *)
(* Delivery identity with the reference core is the contract: same      *)
(* sorted inboxes, same [delivered] count, and accept-point hooks whose  *)
(* expansion (a broadcast to its k recipients) is the reference core's   *)
(* [on_deliver] multiset. The reference keeps the first of all messages  *)
(* a recipient gets from one sender with equal payloads, whatever their  *)
(* destination shape. Within a sorted slice one sender's unicasts are    *)
(* adjacent and in send order, so the compaction keeps a unicast unless  *)
(* an equal one from the same sender was kept before it in the slice,   *)
(* or the sender sent an equal record whose audience holds the           *)
(* recipient earlier in the round. A kept unicast whose sender sent such *)
(* a record LATER puts its recipient on the earliest such record's       *)
(* exclusion list. A kept record whose sender sent an equal record       *)
(* earlier excludes the recipients the two audiences share. A record     *)
(* skips its exclusions at read time and charges k = |audience| -        *)
(* |exclusions|.                                                         *)
(*                                                                       *)
(* Hooks fire from [seal], once per accepted delivery or broadcast, but  *)
(* not in scan order: [on_deliver] recipient by recipient during the     *)
(* compaction, [on_broadcast] after it, once every exclusion is known.   *)
(* Both broadcasts and multicasts go through [on_broadcast], with their  *)
(* audience array, one physical array per audience per round.            *)
(*                                                                       *)
(* Ordering: the reference core stable-sorts each inbox by sender over   *)
(* send order, which is exactly ascending (sender id, global scan        *)
(* position). Every record carries its scan position, so the read-time   *)
(* merge compares (raw sender id, seq) and reproduces the reference      *)
(* order without ever materialising an unsorted inbox.                   *)
(* -------------------------------------------------------------------- *)

type 'm arena_state = {
  intr : Interner.t;
      (* Recipients only; private to the state, persists and grows across
         rounds. *)
  mutable stamp : int;
      (* Round stamp. A dense index ix is present this round iff
         [present_at.(ix) = stamp]; advancing the stamp invalidates every
         mark in O(1). *)
  mutable present_at : int array;
  pres_ids : Node_id.t Arena.t; (* present members, ascending-id order *)
  (* Multicast groups: one entry per distinct group array this round. *)
  g_key : Node_id.t array Arena.t; (* the group array, compared physically *)
  g_aud : Node_id.t array Arena.t; (* its distinct present members *)
  mutable masks : int array array;
      (* [masks.(g).(ix) = stamp] iff recipient ix is in group g's
         audience; the pool is grow-only and stamp-guarded like
         [present_at], so nothing is cleared between rounds. *)
  (* Records (broadcasts and multicasts): parallel arenas, one slot per
     accepted record. *)
  b_src : Node_id.t Arena.t;
  b_seq : int Arena.t; (* global scan position, merge tie-break *)
  b_pay : 'm option Arena.t;
  b_aud : int Arena.t; (* group index, or -1 for the whole present set *)
  b_excl : int list Arena.t; (* audience ixs already served earlier *)
  b_later : int Arena.t;
      (* records kept although their sender sent an equal one earlier:
         their audience overlap is excluded at seal time *)
  mutable b_order : int array; (* sealed: record indices by (sender, seq) *)
  bc_pay : (int, ('m * int) list) Hashtbl.t;
      (* raw sender id -> its accepted records this round, latest first,
         as (payload, record index) *)
  (* Unicast records: parallel arenas, one slot per unicast to a present
     recipient, duplicates included until [seal] compacts them away. *)
  u_rcpt : int Arena.t; (* recipient ix *)
  u_src : Node_id.t Arena.t;
  u_seq : int Arena.t;
  u_pay : 'm option Arena.t;
  (* CSR slices into [u_pos], indexed by recipient ix and stamp-guarded
     like [present_at]. *)
  mutable sl_off : int array;
  mutable sl_len : int array;
  mutable sl_fill : int array;
  mutable sl_stamp : int array;
  mutable u_pos : int array;
  mutable delivered : int;
}

type 'm view = 'm arena_state

let dummy_id = Node_id.of_int 0

let arena_create ?(hint = 16) () =
  let hint = max hint 1 in
  {
    intr = Interner.create ~hint ();
    stamp = 0;
    present_at = Array.make hint 0;
    pres_ids = Arena.create ~hint ~dummy:dummy_id ();
    g_key = Arena.create ~hint:4 ~dummy:[||] ();
    g_aud = Arena.create ~hint:4 ~dummy:[||] ();
    masks = [||];
    b_src = Arena.create ~hint ~dummy:dummy_id ();
    b_seq = Arena.create ~hint ~dummy:0 ();
    b_pay = Arena.create ~hint ~dummy:None ();
    b_aud = Arena.create ~hint ~dummy:(-1) ();
    b_excl = Arena.create ~hint ~dummy:[] ();
    b_later = Arena.create ~hint:4 ~dummy:0 ();
    b_order = [||];
    bc_pay = Hashtbl.create 16;
    u_rcpt = Arena.create ~hint ~dummy:0 ();
    u_src = Arena.create ~hint ~dummy:dummy_id ();
    u_seq = Arena.create ~hint ~dummy:0 ();
    u_pay = Arena.create ~hint ~dummy:None ();
    sl_off = Array.make hint 0;
    sl_len = Array.make hint 0;
    sl_fill = Array.make hint 0;
    sl_stamp = Array.make hint 0;
    u_pos = Array.make hint 0;
    delivered = 0;
  }

(* Grow the stamp-guarded column arrays to cover every interned index.
   New slots are stamp 0, i.e. "never present". *)
let ensure_columns st =
  let need = Interner.size st.intr in
  let old = Array.length st.present_at in
  if need > old then begin
    let grow a =
      let g = Array.make (max need (2 * old)) 0 in
      Array.blit a 0 g 0 old;
      g
    in
    st.present_at <- grow st.present_at;
    st.sl_off <- grow st.sl_off;
    st.sl_len <- grow st.sl_len;
    st.sl_fill <- grow st.sl_fill;
    st.sl_stamp <- grow st.sl_stamp
  end

let raw = Node_id.to_int
let payload_of = function Some p -> p | None -> assert false

(* Record [b]'s audience holds recipient [rix]. *)
let covers st b rix =
  let g = Arena.unsafe_get st.b_aud b in
  g < 0 || st.masks.(g).(rix) = st.stamp

(* The group index of [group] this round, building its mask and
   audience on first sight. Recent groups are matched physically; a miss
   only costs a second mask for the same members. *)
let group_of st group =
  let ng = Arena.length st.g_key in
  let rec recent g =
    if g < max 0 (ng - 4) then None
    else if Arena.unsafe_get st.g_key g == group then Some g
    else recent (g - 1)
  in
  match recent (ng - 1) with
  | Some g -> g
  | None ->
      let need = Array.length st.present_at in
      if ng >= Array.length st.masks then begin
        let pool = Array.make (max 4 (2 * ng)) [||] in
        Array.blit st.masks 0 pool 0 (Array.length st.masks);
        st.masks <- pool
      end;
      if Array.length st.masks.(ng) < need then
        st.masks.(ng) <- Array.make need 0;
      let mask = st.masks.(ng) in
      let aud =
        Array.fold_left
          (fun acc id ->
            match Interner.find_opt st.intr id with
            | Some rix
              when st.present_at.(rix) = st.stamp && mask.(rix) <> st.stamp ->
                mask.(rix) <- st.stamp;
                id :: acc
            | _ -> acc)
          [] group
      in
      Arena.push st.g_key group;
      Arena.push st.g_aud (Array.of_list (List.rev aud));
      ng

(* The index of the first record, among one sender's [(payload, record)]
   list (latest first), whose payload equals [p] and whose audience holds
   [rix]; -1 when none does. *)
let rec first_covering st equal p rix found = function
  | [] -> found
  | (q, b) :: rest ->
      first_covering st equal p rix
        (if equal p q && covers st b rix then b else found)
        rest

(* Some slot of [u_pos] in [j, w) holds a unicast whose payload equals [p]. *)
let rec kept_among st equal p j w =
  j < w
  && (equal p (payload_of (Arena.unsafe_get st.u_pay st.u_pos.(j)))
     || kept_among st equal p (j + 1) w)

let exclude st b rix =
  Arena.set st.b_excl b (rix :: Arena.unsafe_get st.b_excl b)

(* Seal the round: counting-sort the unicast arenas by recipient into
   CSR slices of [u_pos], insertion-sort each slice by (sender, seq),
   then compact it — dropping the unicasts the reference core would
   have deduplicated and recording record exclusions — and settle the
   delivered count and the hooks. Slices arrive in seq order already, so
   the sort only moves records when a recipient heard from multiple
   senders out of id order. *)
let seal ?on_deliver ?on_broadcast st ~equal =
  let nu = Arena.length st.u_rcpt in
  (* Recipients touched this round, so offset assignment skips the other
     interned indices entirely. *)
  let touched = Arena.create ~hint:16 ~dummy:0 () in
  for k = 0 to nu - 1 do
    let rix = Arena.unsafe_get st.u_rcpt k in
    if st.sl_stamp.(rix) <> st.stamp then begin
      st.sl_stamp.(rix) <- st.stamp;
      st.sl_len.(rix) <- 0;
      Arena.push touched rix
    end;
    st.sl_len.(rix) <- st.sl_len.(rix) + 1
  done;
  let off = ref 0 in
  Arena.iteri touched (fun _ rix ->
      st.sl_off.(rix) <- !off;
      st.sl_fill.(rix) <- !off;
      off := !off + st.sl_len.(rix));
  if nu > Array.length st.u_pos then
    st.u_pos <- Array.make (max nu (2 * Array.length st.u_pos)) 0;
  for k = 0 to nu - 1 do
    let rix = Arena.unsafe_get st.u_rcpt k in
    st.u_pos.(st.sl_fill.(rix)) <- k;
    st.sl_fill.(rix) <- st.sl_fill.(rix) + 1
  done;
  (* Record index order IS seq order, so ties never reach beyond the
     record index comparison. *)
  let before a b =
    let c = compare (raw (Arena.unsafe_get st.u_src a)) (raw (Arena.unsafe_get st.u_src b)) in
    if c <> 0 then c < 0 else a < b
  in
  let nb = Arena.length st.b_src in
  let bcs_of src =
    if nb = 0 then []
    else
      match Hashtbl.find_opt st.bc_pay (raw src) with
      | Some l -> l
      | None -> []
  in
  (* A record kept despite an earlier equal one from its sender skips
     the recipients that earlier record already reached. *)
  Arena.iteri st.b_later (fun _ b ->
      let src = Arena.unsafe_get st.b_src b in
      let p = payload_of (Arena.unsafe_get st.b_pay b) in
      let earlier =
        List.filter (fun (q, b') -> b' < b && equal p q) (bcs_of src)
      in
      let visit id =
        let rix = Interner.intern st.intr id in
        if List.exists (fun (_, b') -> covers st b' rix) earlier then
          exclude st b rix
      in
      let g = Arena.unsafe_get st.b_aud b in
      if g < 0 then Arena.iteri st.pres_ids (fun _ id -> visit id)
      else Array.iter visit (Arena.unsafe_get st.g_aud g));
  let delivered = ref 0 in
  Arena.iteri touched (fun _ rix ->
      let lo = st.sl_off.(rix) and len = st.sl_len.(rix) in
      for i = lo + 1 to lo + len - 1 do
        let v = st.u_pos.(i) in
        let j = ref i in
        while !j > lo && before v st.u_pos.(!j - 1) do
          st.u_pos.(!j) <- st.u_pos.(!j - 1);
          decr j
        done;
        st.u_pos.(!j) <- v
      done;
      (* Compaction: [u_pos.(run .. w-1)] are the kept unicasts of the
         current sender, [bcs] that sender's records this round. *)
      let recipient =
        match on_deliver with
        | Some _ -> Interner.extern st.intr rix
        | None -> dummy_id
      in
      let w = ref lo and run = ref lo in
      let run_src = ref dummy_id and bcs = ref [] in
      for i = lo to lo + len - 1 do
        let u = st.u_pos.(i) in
        let src = Arena.unsafe_get st.u_src u in
        if i = lo || not (Node_id.equal src !run_src) then begin
          run := !w;
          run_src := src;
          bcs := bcs_of src
        end;
        let p = payload_of (Arena.unsafe_get st.u_pay u) in
        let bc = first_covering st equal p rix (-1) !bcs in
        let served_by_record =
          bc >= 0 && Arena.unsafe_get st.b_seq bc < Arena.unsafe_get st.u_seq u
        in
        if not (served_by_record || kept_among st equal p !run !w) then begin
          st.u_pos.(!w) <- u;
          incr w;
          if bc >= 0 then exclude st bc rix;
          incr delivered;
          match on_deliver with
          | Some f -> f ~recipient ~src p
          | None -> ()
        end
      done;
      st.sl_len.(rix) <- !w - lo);
  let npresent = Arena.length st.pres_ids in
  (* The broadcast audience, materialised only for the hook. *)
  let everyone =
    lazy (Array.init npresent (fun i -> Arena.unsafe_get st.pres_ids i))
  in
  for b = 0 to nb - 1 do
    let excl = Arena.unsafe_get st.b_excl b in
    let g = Arena.unsafe_get st.b_aud b in
    let size =
      if g < 0 then npresent else Array.length (Arena.unsafe_get st.g_aud g)
    in
    let k = size - List.length excl in
    delivered := !delivered + k;
    (* One notification for the whole accepted record: the recipients
       are its audience minus [excl], so the hook never walks them. *)
    match on_broadcast with
    | Some f when k > 0 ->
        f ~src:(Arena.unsafe_get st.b_src b)
          (payload_of (Arena.unsafe_get st.b_pay b))
          ~audience:
            (if g < 0 then Lazy.force everyone
             else Arena.unsafe_get st.g_aud g)
          ~k
          ~excluded:(List.map (Interner.extern st.intr) excl)
    | _ -> ()
  done;
  st.delivered <- !delivered;
  let order = Array.init nb (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare (raw (Arena.unsafe_get st.b_src a)) (raw (Arena.unsafe_get st.b_src b)) in
      if c <> 0 then c else compare a b)
    order;
  st.b_order <- order

let route_arena ?on_deliver ?on_broadcast ~state:st ~equal ~present
    ~envelopes () =
  (* New round: advance the stamp, drop lengths to zero, keep capacity.
     Payload slots from the previous round stay live until overwritten;
     that pins at most one round of messages, which is the price of the
     allocation-free clear. *)
  st.stamp <- st.stamp + 1;
  Arena.clear st.pres_ids;
  Arena.clear st.g_key;
  Arena.clear st.g_aud;
  Arena.clear st.b_src;
  Arena.clear st.b_seq;
  Arena.clear st.b_pay;
  Arena.clear st.b_aud;
  Arena.clear st.b_excl;
  Arena.clear st.b_later;
  Arena.clear st.u_rcpt;
  Arena.clear st.u_src;
  Arena.clear st.u_seq;
  Arena.clear st.u_pay;
  Hashtbl.clear st.bc_pay;
  Node_id.Set.iter
    (fun id ->
      let ix = Interner.intern st.intr id in
      ensure_columns st;
      st.present_at.(ix) <- st.stamp;
      Arena.push st.pres_ids id)
    present;
  let seq = ref 0 in
  (* Accept a record with audience [g] unless an earlier equal record of
     its sender already covers that whole audience. *)
  let record (env : 'm Envelope.t) g =
    let key = raw env.src in
    let prior =
      match Hashtbl.find_opt st.bc_pay key with Some l -> l | None -> []
    in
    let equal_prior = List.filter (fun (q, _) -> equal env.payload q) prior in
    let covering (_, b) =
      let g' = Arena.unsafe_get st.b_aud b in
      g' < 0 || g' = g
    in
    if not (List.exists covering equal_prior) then begin
      let b = Arena.length st.b_src in
      Hashtbl.replace st.bc_pay key ((env.payload, b) :: prior);
      if equal_prior <> [] then Arena.push st.b_later b;
      Arena.push st.b_src env.src;
      Arena.push st.b_seq !seq;
      incr seq;
      Arena.push st.b_pay (Some env.payload);
      Arena.push st.b_aud g;
      Arena.push st.b_excl []
    end
  in
  let scan (env : 'm Envelope.t) =
    match env.dst with
    | Envelope.To id -> (
        match Interner.find_opt st.intr id with
        | Some rix when st.present_at.(rix) = st.stamp ->
            Arena.push st.u_rcpt rix;
            Arena.push st.u_src env.src;
            Arena.push st.u_seq !seq;
            incr seq;
            Arena.push st.u_pay (Some env.payload)
        | _ -> ())
    | Envelope.Broadcast -> record env (-1)
    | Envelope.Multicast group ->
        let g = group_of st group in
        if Array.length (Arena.unsafe_get st.g_aud g) > 0 then record env g
  in
  List.iter scan envelopes;
  seal ?on_deliver ?on_broadcast st ~equal;
  st

let view_delivered st = st.delivered

(* Lazily expand one recipient's inbox: merge the (sender, seq)-sorted
   records it is in the audience of (skipping its exclusions) with the
   recipient's sealed unicast slice. The resulting list is the only
   per-read allocation the core makes. A round without multicasts never
   reads a group mask. *)
let view_inbox st id =
  match Interner.find_opt st.intr id with
  | Some rix
    when rix < Array.length st.present_at && st.present_at.(rix) = st.stamp ->
      let border = st.b_order in
      let nb = Array.length border in
      let uoff, ulen =
        if rix < Array.length st.sl_stamp && st.sl_stamp.(rix) = st.stamp then
          (st.sl_off.(rix), st.sl_len.(rix))
        else (0, 0)
      in
      let grouped = Arena.length st.g_key > 0 in
      let skip b =
        (grouped && not (covers st b rix))
        || List.exists (Int.equal rix) (Arena.unsafe_get st.b_excl b)
      in
      let acc = ref [] in
      let bi = ref 0 and ui = ref 0 in
      let emit_b b =
        acc :=
          (Arena.unsafe_get st.b_src b, payload_of (Arena.unsafe_get st.b_pay b))
          :: !acc
      in
      let emit_u u =
        acc :=
          (Arena.unsafe_get st.u_src u, payload_of (Arena.unsafe_get st.u_pay u))
          :: !acc
      in
      while !bi < nb && skip border.(!bi) do incr bi done;
      while !bi < nb || !ui < ulen do
        if !bi >= nb then begin
          emit_u st.u_pos.(uoff + !ui);
          incr ui
        end
        else if !ui >= ulen then begin
          emit_b border.(!bi);
          incr bi;
          while !bi < nb && skip border.(!bi) do incr bi done
        end
        else begin
          let b = border.(!bi) and u = st.u_pos.(uoff + !ui) in
          let c =
            compare (raw (Arena.unsafe_get st.b_src b)) (raw (Arena.unsafe_get st.u_src u))
          in
          let b_first =
            if c <> 0 then c < 0
            else Arena.unsafe_get st.b_seq b < Arena.unsafe_get st.u_seq u
          in
          if b_first then begin
            emit_b b;
            incr bi;
            while !bi < nb && skip border.(!bi) do incr bi done
          end
          else begin
            emit_u u;
            incr ui
          end
        end
      done;
      List.rev !acc
  | _ -> []

let view_present st =
  Arena.fold st.pres_ids ~init:[] ~f:(fun acc id -> id :: acc) |> List.rev
