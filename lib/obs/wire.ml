open Ubpa_util

type count = { msgs : int; bits : int }

(* Mutable counter cell: bumping one allocates nothing. *)
type cell = { mutable m : int; mutable b : int }

(* One broadcast or multicast audience, interned once: charges owed to
   every member accumulate in [owed_*] and are credited to the recipient
   counters in one pass ([settle]), so a record costs O(1) however many
   recipients accepted it. *)
type audience = {
  key : Node_id.t array;  (* compared physically *)
  members : int array;
  mutable owed_m : int;
  mutable owed_b : int;
}

type t = {
  total : cell;
  mutable rounds : cell array;
      (* indexed by round; [absent] where no round was charged *)
  mutable kinds : (string * cell) list;  (* the handful a protocol has *)
  intr : Interner.t;  (* node id -> dense index into [nodes] *)
  mutable nodes : int array;
      (* four counters per dense index ix, at [4 * ix + col]: see
         [rcv_m], [rcv_b], [snd_m], [snd_b] *)
  mutable audiences : audience list;  (* at most [max_audiences] *)
}

let rcv_m = 0
let rcv_b = 1
let snd_m = 2
let snd_b = 3
let max_audiences = 8
let max_round = 10_000_000

(* Shared placeholder for uncharged rounds; never bumped. *)
let absent = { m = 0; b = 0 }

let create () =
  {
    total = { m = 0; b = 0 };
    rounds = Array.make 32 absent;
    kinds = [];
    intr = Interner.create ~hint:32 ();
    nodes = Array.make 128 0;
    audiences = [];
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

(* The counter cell of [round], created on first charge. *)
let round_cell t round =
  if round < 0 then invalid_arg "Wire: negative round";
  let cap = Array.length t.rounds in
  if round >= cap then begin
    let g = Array.make (max (round + 1) (2 * cap)) absent in
    Array.blit t.rounds 0 g 0 cap;
    t.rounds <- g
  end;
  let c = t.rounds.(round) in
  if c != absent then c
  else begin
    let c = { m = 0; b = 0 } in
    t.rounds.(round) <- c;
    c
  end

(* The counter cell of [kind], physical equality first since
   classifiers return literals. *)
let kind_cell t kind =
  let rec find = function
    | (name, c) :: _ when name == kind || String.equal name kind -> c
    | _ :: rest -> find rest
    | [] ->
        let c = { m = 0; b = 0 } in
        t.kinds <- (kind, c) :: t.kinds;
        c
  in
  find t.kinds

(* Everything but the recipient counters: [msgs] messages of [bits] total
   from [sender] in [round], of [kind]. *)
let charge_sender t ~round ~sender ~kind ~msgs ~bits =
  bump t.total msgs bits;
  bump (round_cell t round) msgs bits;
  bump (kind_cell t kind) msgs bits;
  let s = slot t sender in
  add t s snd_m msgs;
  add t s snd_b bits

let record t ~round ~sender ~recipient ~kind ~bits =
  charge_sender t ~round ~sender ~kind ~msgs:1 ~bits;
  let r = slot t recipient in
  add t r rcv_m 1;
  add t r rcv_b bits

(* Credit the owed records to every audience member. Every reader of
   the recipient counters settles first. *)
let settle t =
  List.iter
    (fun a ->
      if a.owed_m > 0 then begin
        Array.iter
          (fun r ->
            add t r rcv_m a.owed_m;
            add t r rcv_b a.owed_b)
          a.members;
        a.owed_m <- 0;
        a.owed_b <- 0
      end)
    t.audiences

let audience_of t key =
  match List.find_opt (fun a -> a.key == key) t.audiences with
  | Some a -> a
  | None ->
      if List.length t.audiences >= max_audiences then begin
        settle t;
        t.audiences <- []
      end;
      let a =
        { key; members = Array.map (slot t) key; owed_m = 0; owed_b = 0 }
      in
      t.audiences <- a :: t.audiences;
      a

(* An excluded recipient is debited up front; the audience-wide credit at
   settle time brings it back to exactly what it accepted. *)
let record_broadcast t ~round ~sender ~audience ~excluded ~kind ~bits =
  let k = Array.length audience - List.length excluded in
  if k > 0 then begin
    let a = audience_of t audience in
    charge_sender t ~round ~sender ~kind ~msgs:k ~bits:(k * bits);
    a.owed_m <- a.owed_m + 1;
    a.owed_b <- a.owed_b + bits;
    List.iter
      (fun id ->
        let r = slot t id in
        add t r rcv_m (-1);
        add t r rcv_b (-bits))
      excluded
  end

let messages t = t.total.m
let bits t = t.total.b

let count_of c = { msgs = c.m; bits = c.b }

let per_round t =
  let rows = ref [] in
  for r = Array.length t.rounds - 1 downto 0 do
    let c = t.rounds.(r) in
    if c != absent then rows := (r, count_of c) :: !rows
  done;
  !rows

let per_kind t =
  List.map (fun (k, c) -> (k, count_of c)) t.kinds
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

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
  let* () =
    (* Rounds index a dense array: bound them before it grows. *)
    if List.exists (fun (r, _) -> r < 0 || r > max_round) rounds then
      Error "Wire.of_json: round out of range"
    else Ok ()
  in
  let t = create () in
  let set c (x : count) =
    c.m <- x.msgs;
    c.b <- x.bits
  in
  bump t.total msgs bits;
  List.iter (fun (r, c) -> set (round_cell t r) c) rounds;
  List.iter (fun (k, c) -> set (kind_cell t k) c) kinds;
  let fill m b =
    List.iter (fun (n, c) ->
        let ix = slot t (Node_id.of_int n) in
        t.nodes.((4 * ix) + m) <- c.msgs;
        t.nodes.((4 * ix) + b) <- c.bits)
  in
  fill rcv_m rcv_b nodes;
  fill snd_m snd_b senders;
  Ok t
