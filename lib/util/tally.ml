type 'k entry = { key : 'k; seen : Bitset.t  (** dense sender indices *) }

(* Balanced search tree over the contents, ordered by the tally's own
   [compare], mapping each content to its position in [entries]. *)
type 'k index =
  | Leaf
  | Node of { l : 'k index; key : 'k; pos : int; r : 'k index; h : int }

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  intr : Interner.t;
  mutable entries : 'k entry array;  (** first-seen order *)
  mutable len : int;
  mutable index : 'k index;
}

let create ~compare ?(interner = Interner.create ()) () =
  { compare; intr = interner; entries = [||]; len = 0; index = Leaf }

let height = function Leaf -> 0 | Node n -> n.h

let node l key pos r =
  Node { l; key; pos; r; h = 1 + max (height l) (height r) }

let balance l key pos r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | Node { l = ll; key = lk; pos = lp; r = lr; _ }
      when height ll >= height lr ->
        node ll lk lp (node lr key pos r)
    | Node { l = ll; key = lk; pos = lp; r = Node lr; _ } ->
        node (node ll lk lp lr.l) lr.key lr.pos (node lr.r key pos r)
    | _ -> assert false
  else if hr > hl + 1 then
    match r with
    | Node { l = rl; key = rk; pos = rp; r = rr; _ }
      when height rr >= height rl ->
        node (node l key pos rl) rk rp rr
    | Node { l = Node rl; key = rk; pos = rp; r = rr; _ } ->
        node (node l key pos rl.l) rl.key rl.pos (node rl.r rk rp rr)
    | _ -> assert false
  else node l key pos r

let rec insert cmp key pos = function
  | Leaf -> node Leaf key pos Leaf
  | Node n ->
      if cmp key n.key < 0 then balance (insert cmp key pos n.l) n.key n.pos n.r
      else balance n.l n.key n.pos (insert cmp key pos n.r)

(* Position of [k] in [entries], or [-1]. *)
let rec find_pos cmp k = function
  | Leaf -> -1
  | Node n ->
      let c = cmp k n.key in
      if c = 0 then n.pos else find_pos cmp k (if c < 0 then n.l else n.r)

let find t k = find_pos t.compare k t.index

let entry t k =
  let pos = find t k in
  if pos >= 0 then t.entries.(pos)
  else begin
    let e = { key = k; seen = Bitset.create ~hint:(Interner.size t.intr) () } in
    if t.len = Array.length t.entries then begin
      let grown = Array.make (max 4 (2 * t.len)) e in
      Array.blit t.entries 0 grown 0 t.len;
      t.entries <- grown
    end;
    t.entries.(t.len) <- e;
    t.index <- insert t.compare k t.len t.index;
    t.len <- t.len + 1;
    e
  end

let add_index t ix k = Bitset.add (entry t k).seen ix
let add t ~sender k = add_index t (Interner.intern t.intr sender) k

let count t k =
  let pos = find t k in
  if pos < 0 then 0 else Bitset.count t.entries.(pos).seen

let senders t k =
  let pos = find t k in
  if pos < 0 then []
  else
    Bitset.fold t.entries.(pos).seen ~init:[] ~f:(fun acc ix ->
        Interner.extern t.intr ix :: acc)
    |> List.sort Node_id.compare

(* Consing while walking oldest to newest leaves the newest entry first. *)
let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.entries.(i)
  done;
  !acc

let contents t = fold t ~init:[] ~f:(fun acc e -> e.key :: acc)

let meeting t ~threshold =
  fold t ~init:[] ~f:(fun acc e ->
      if threshold (Bitset.count e.seen) then e.key :: acc else acc)

let max_by_count t =
  let best = ref None in
  for i = t.len - 1 downto 0 do
    let e = t.entries.(i) in
    let c = Bitset.count e.seen in
    match !best with
    | Some (k', c') when c < c' || (c = c' && t.compare e.key k' >= 0) -> ()
    | _ -> best := Some (e.key, c)
  done;
  !best
