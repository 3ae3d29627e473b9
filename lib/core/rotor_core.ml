open Ubpa_util

type t = {
  mutable c : Node_id.t list;  (** candidate coordinators, ascending *)
  mutable s : Node_id.Set.t;  (** already-selected coordinators *)
  mutable r : int;  (** loop index, starts at 0 *)
  mutable history : (int * Node_id.t) list;  (** newest first *)
  echoers : Interner.t;  (** dense indices for echo senders *)
}

let create () =
  {
    c = [];
    s = Node_id.Set.empty;
    r = 0;
    history = [];
    echoers = Interner.create ();
  }

type step_result = {
  selected : Node_id.t option;
  relay_echoes : Node_id.t list;
  i_am_coordinator : bool;
  finished : bool;
}

let rotor_round t ~self ~n_v ~echoes =
  let tally = Tally.create ~compare:Node_id.compare ~interner:t.echoers () in
  List.iter (fun (sender, p) -> Tally.add tally ~sender p) echoes;
  let fresh p = not (List.exists (Node_id.equal p) t.c) in
  (* B_v gathers re-echoes for candidates past n_v/3 (reliable-broadcast
     relay step); candidates past 2n_v/3 enter C_v before selection. *)
  let relay_echoes =
    Tally.meeting tally ~threshold:(fun count ->
        Threshold.ge_third ~count ~of_:n_v)
    |> List.filter fresh
  in
  let adds =
    Tally.meeting tally ~threshold:(fun count ->
        Threshold.ge_two_thirds ~count ~of_:n_v)
    |> List.filter fresh
  in
  if adds <> [] then t.c <- Node_id.sorted (adds @ t.c);
  match t.c with
  | [] ->
      t.r <- t.r + 1;
      { selected = None; relay_echoes; i_am_coordinator = false; finished = false }
  | _ :: _ ->
      let size = List.length t.c in
      let p = List.nth t.c (t.r mod size) in
      if Node_id.Set.mem p t.s && t.r >= size then begin
        (* Re-selection after the index wrapped: Algorithm 2's "break".
           The proof of Lemma "rc-gdrnd" derives its contradiction from
           "selecting the same identifier again implies r > |C_v|", so the
           wrap is part of the break condition. Without it a late
           insertion of a smaller identifier shifts C_v and re-hits an
           already-selected coordinator early (see DESIGN.md). *)
        t.r <- t.r + 1;
        { selected = None; relay_echoes; i_am_coordinator = false; finished = true }
      end
      else begin
        (* Either a fresh coordinator, or a shift-induced repeat before the
           wrap — in the latter case the round simply repeats p's turn. *)
        t.s <- Node_id.Set.add p t.s;
        t.history <- (t.r, p) :: t.history;
        t.r <- t.r + 1;
        {
          selected = Some p;
          relay_echoes;
          i_am_coordinator = Node_id.equal p self;
          finished = false;
        }
      end

let candidates t = t.c
let selections t = List.rev t.history

let copy t =
  { t with echoers = Interner.copy t.echoers }

(* Canonical description of the parts of the rotor that influence future
   rounds: C_v (already ascending), S_v (a set), and the loop index.
   [history] only feeds introspection and [echoers] is an index table, so
   neither belongs in the fingerprint. *)
let add_fingerprint b t =
  Buffer.add_string b "c=";
  Key.add_list b ~sep:',' Key.add_id t.c;
  Buffer.add_string b ";s=";
  Key.add_list b ~sep:',' Key.add_id (Node_id.Set.elements t.s);
  Buffer.add_string b ";r=";
  Key.add_int b t.r
