(* Open addressing with linear probing. A slot holds [dense index + 1]
   ([0] = empty); the key of an occupied slot is read back through [ids],
   so every raw identifier value, 0 and negatives included, is a valid key.
   The table stays at most half full. *)
type t = {
  mutable slots : int array;  (** power-of-two length *)
  mutable shift : int;  (** [Sys.int_size - log2 (length slots)] *)
  mutable ids : Node_id.t array;  (** dense index -> identifier *)
  mutable size : int;
}

let min_bits = 3

(* Fibonacci hashing: the top [log2 capacity] bits of [raw * 2^63/phi], so
   ids equal modulo the capacity still spread over the whole table. *)
let slot_of shift raw = (raw * 0x4f1bbcdcbfa53e0b) lsr shift

let create ?(hint = 16) () =
  let bits = ref min_bits in
  while 1 lsl !bits < 2 * hint do
    incr bits
  done;
  {
    slots = Array.make (1 lsl !bits) 0;
    shift = Sys.int_size - !bits;
    ids = Array.make (max hint 1) (Node_id.of_int 0);
    size = 0;
  }

let size t = t.size

(* Slot holding [raw]'s [index + 1], or the empty slot where it would go. *)
let probe t raw =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (slot_of t.shift raw) in
  let s = ref (Array.unsafe_get slots !i) in
  while !s <> 0 && Node_id.to_int (Array.unsafe_get t.ids (!s - 1)) <> raw do
    i := (!i + 1) land mask;
    s := Array.unsafe_get slots !i
  done;
  !i

let rehash t =
  let bits = Sys.int_size - t.shift + 1 in
  t.slots <- Array.make (1 lsl bits) 0;
  t.shift <- Sys.int_size - bits;
  for ix = 0 to t.size - 1 do
    t.slots.(probe t (Node_id.to_int t.ids.(ix))) <- ix + 1
  done

let intern t id =
  let raw = Node_id.to_int id in
  let i = probe t raw in
  let s = t.slots.(i) in
  if s > 0 then s - 1
  else begin
    let ix = t.size in
    if ix >= Array.length t.ids then begin
      let ids = Array.make (2 * ix) (Node_id.of_int 0) in
      Array.blit t.ids 0 ids 0 ix;
      t.ids <- ids
    end;
    t.ids.(ix) <- id;
    t.size <- ix + 1;
    if 2 * t.size > Array.length t.slots then rehash t
    else t.slots.(i) <- ix + 1;
    ix
  end

let copy t = { t with slots = Array.copy t.slots; ids = Array.copy t.ids }

let find_opt t id =
  let s = t.slots.(probe t (Node_id.to_int id)) in
  if s = 0 then None else Some (s - 1)

let mem t id = t.slots.(probe t (Node_id.to_int id)) <> 0

let extern t ix =
  if ix < 0 || ix >= t.size then
    invalid_arg (Printf.sprintf "Interner.extern: index %d out of 0..%d" ix (t.size - 1));
  t.ids.(ix)

let iter t f =
  for ix = 0 to t.size - 1 do
    f ix t.ids.(ix)
  done
