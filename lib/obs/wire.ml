open Ubpa_util

type count = { msgs : int; bits : int }

(* Mutable counter cell: bumping one allocates nothing. *)
type cell = { mutable m : int; mutable b : int }

type t = {
  total : cell;
  rounds : (int, cell) Hashtbl.t;
  kinds : (string, cell) Hashtbl.t;
  intr : Interner.t;  (* node id -> dense index into [nodes] *)
  mutable nodes : int array;
      (* four counters per dense index ix, at [4 * ix + col]: see
         [rcv_m], [rcv_b], [snd_m], [snd_b] *)
  (* The current broadcast audience, interned once: charges owed to every
     member accumulate in [owed_*] and are credited to the recipient
     counters in one pass ([settle]), so a broadcast costs O(1) however
     many recipients accepted it. *)
  mutable audience : Node_id.Set.t;
  mutable members : int array;
  mutable owed_m : int;
  mutable owed_b : int;
}

let rcv_m = 0
let rcv_b = 1
let snd_m = 2
let snd_b = 3

let create () =
  {
    total = { m = 0; b = 0 };
    rounds = Hashtbl.create 32;
    kinds = Hashtbl.create 8;
    intr = Interner.create ~hint:32 ();
    nodes = Array.make 128 0;
    audience = Node_id.Set.empty;
    members = [||];
    owed_m = 0;
    owed_b = 0;
  }

(* Dense index of [id], growing [nodes] to cover it. *)
let slot t id =
  let ix = Interner.intern t.intr id in
  let cap = Array.length t.nodes in
  if (4 * ix) + 3 >= cap then begin
    let g = Array.make (max ((4 * ix) + 4) (2 * cap)) 0 in
    Array.blit t.nodes 0 g 0 cap;
    t.nodes <- g
  end;
  ix

let add t ix col v = t.nodes.((4 * ix) + col) <- t.nodes.((4 * ix) + col) + v
let get t ix col = t.nodes.((4 * ix) + col)

let bump c msgs bits =
  c.m <- c.m + msgs;
  c.b <- c.b + bits

let bump_key tbl key msgs bits =
  match Hashtbl.find tbl key with
  | c -> bump c msgs bits
  | exception Not_found -> Hashtbl.add tbl key { m = msgs; b = bits }

(* Everything but the recipient counters: [msgs] messages of [bits] total
   from [sender] in [round], of [kind]. *)
let charge_sender t ~round ~sender ~kind ~msgs ~bits =
  bump t.total msgs bits;
  bump_key t.rounds round msgs bits;
  bump_key t.kinds kind msgs bits;
  let s = slot t sender in
  add t s snd_m msgs;
  add t s snd_b bits

let record t ~round ~sender ~recipient ~kind ~bits =
  charge_sender t ~round ~sender ~kind ~msgs:1 ~bits;
  let r = slot t recipient in
  add t r rcv_m 1;
  add t r rcv_b bits

(* Credit the owed broadcasts to every audience member. Every reader of
   the recipient counters settles first. *)
let settle t =
  Array.iter
    (fun r ->
      add t r rcv_m t.owed_m;
      add t r rcv_b t.owed_b)
    t.members;
  t.owed_m <- 0;
  t.owed_b <- 0

(* An excluded recipient is debited up front; the audience-wide credit at
   settle time brings it back to exactly what it accepted. *)
let record_broadcast t ~round ~sender ~present ~excluded ~kind ~bits =
  if present != t.audience then begin
    settle t;
    t.audience <- present;
    t.members <-
      Array.of_list (List.map (slot t) (Node_id.Set.elements present))
  end;
  let k = Array.length t.members - List.length excluded in
  if k > 0 then begin
    charge_sender t ~round ~sender ~kind ~msgs:k ~bits:(k * bits);
    t.owed_m <- t.owed_m + 1;
    t.owed_b <- t.owed_b + bits;
    List.iter
      (fun id ->
        let r = slot t id in
        add t r rcv_m (-1);
        add t r rcv_b (-bits))
      excluded
  end

let messages t = t.total.m
let bits t = t.total.b

let sorted_cells tbl cmp =
  Hashtbl.fold (fun k c acc -> (k, { msgs = c.m; bits = c.b }) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let per_round t = sorted_cells t.rounds Int.compare
let per_kind t = sorted_cells t.kinds String.compare

(* A node appears in a breakdown once it has a message there; counts only
   ever grow, so "has a row" is "count > 0". *)
let column t m b =
  settle t;
  let rows = ref [] in
  Interner.iter t.intr (fun ix id ->
      if get t ix m > 0 then
        rows := (id, { msgs = get t ix m; bits = get t ix b }) :: !rows);
  List.sort (fun (x, _) (y, _) -> Node_id.compare x y) !rows

let per_node t = column t rcv_m rcv_b
let per_sender t = column t snd_m snd_b

let zero = { msgs = 0; bits = 0 }

let lookup t m b id =
  settle t;
  match Interner.find_opt t.intr id with
  | Some ix -> { msgs = get t ix m; bits = get t ix b }
  | None -> zero

let received_by t id = lookup t rcv_m rcv_b id
let sent_by t id = lookup t snd_m snd_b id

(* Per-node bit budget: what node [id] put on the wire plus what the wire
   delivered to it. This is the per-processor cost the sub-quadratic
   experiments bound — a node that only receives still pays for every
   accepted delivery, and a committee member that fans a report out to
   Θ(n/√n · log n) samplers pays on the send side. *)
let budget_of t id =
  let r = received_by t id and s = sent_by t id in
  { msgs = r.msgs + s.msgs; bits = r.bits + s.bits }

let max_budget t =
  settle t;
  let ids = ref [] in
  Interner.iter t.intr (fun ix id ->
      if get t ix rcv_m > 0 || get t ix snd_m > 0 then ids := id :: !ids);
  List.fold_left
    (fun acc id ->
      let b = budget_of t id in
      if b.bits > acc.bits then b else acc)
    zero
    (List.sort Node_id.compare !ids)

let equal a b =
  messages a = messages b
  && bits a = bits b
  && per_round a = per_round b
  && per_node a = per_node b
  && per_sender a = per_sender b
  && per_kind a = per_kind b

let pp ppf t =
  Format.fprintf ppf "wire: %d msgs, %d bits%a" (messages t) (bits t)
    (fun ppf kinds ->
      List.iter
        (fun (k, c) -> Format.fprintf ppf " %s=%d/%db" k c.msgs c.bits)
        kinds)
    (per_kind t)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let count_json c : Json.t = `List [ `Int c.msgs; `Int c.bits ]

let to_json t : Json.t =
  let id_rows assoc =
    `List
      (List.map
         (fun (id, c) ->
           `List [ `Int (Node_id.to_int id); `Int c.msgs; `Int c.bits ])
         assoc)
  in
  `Assoc
    [
      ("msgs", `Int (messages t));
      ("bits", `Int (bits t));
      ( "per_round",
        `List
          (List.map
             (fun (r, c) -> `List [ `Int r; `Int c.msgs; `Int c.bits ])
             (per_round t)) );
      ("per_node", id_rows (per_node t));
      ("per_sender", id_rows (per_sender t));
      ("per_kind", `Assoc (List.map (fun (k, c) -> (k, count_json c)) (per_kind t)));
    ]

let of_json (j : Json.t) =
  let ( let* ) = Result.bind in
  let int_field name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "Wire.of_json: missing int %S" name)
  in
  let triple_list name =
    match Option.bind (Json.member name j) Json.to_list with
    | None -> Error (Printf.sprintf "Wire.of_json: missing list %S" name)
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Option.map (List.filter_map Json.to_int) (Json.to_list item) with
            | Some [ k; msgs; bits ] -> Ok ((k, { msgs; bits }) :: acc)
            | _ -> Error (Printf.sprintf "Wire.of_json: bad %S row" name))
          (Ok []) items
        |> Result.map List.rev
  in
  let* msgs = int_field "msgs" in
  let* bits = int_field "bits" in
  let* rounds = triple_list "per_round" in
  let* nodes = triple_list "per_node" in
  (* Wire JSON written before the per-sender breakdown existed has no
     "per_sender" field; load it with empty sender counters rather than
     rejecting the document. *)
  let* senders =
    match Json.member "per_sender" j with
    | None -> Ok []
    | Some _ -> triple_list "per_sender"
  in
  let* kinds =
    match Json.member "per_kind" j with
    | Some (`Assoc fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Option.map (List.filter_map Json.to_int) (Json.to_list v) with
            | Some [ m; b ] -> Ok ((k, { msgs = m; bits = b }) :: acc)
            | _ -> Error (Printf.sprintf "Wire.of_json: bad kind %S" k))
          (Ok []) fields
        |> Result.map List.rev
    | _ -> Error "Wire.of_json: missing \"per_kind\""
  in
  let t = create () in
  let cell_of c = { m = c.msgs; b = c.bits } in
  bump t.total msgs bits;
  List.iter (fun (r, c) -> Hashtbl.replace t.rounds r (cell_of c)) rounds;
  List.iter (fun (k, c) -> Hashtbl.replace t.kinds k (cell_of c)) kinds;
  let fill m b =
    List.iter (fun (n, c) ->
        let ix = slot t (Node_id.of_int n) in
        t.nodes.((4 * ix) + m) <- c.msgs;
        t.nodes.((4 * ix) + b) <- c.bits)
  in
  fill rcv_m rcv_b nodes;
  fill snd_m snd_b senders;
  Ok t
