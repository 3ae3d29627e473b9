type t = {
  tbl : (int, int) Hashtbl.t;  (** raw identifier -> dense index *)
  mutable ids : Node_id.t array;  (** dense index -> identifier *)
  mutable size : int;
}

let create ?(hint = 16) () =
  {
    tbl = Hashtbl.create hint;
    ids = Array.make (max hint 1) (Node_id.of_int 0);
    size = 0;
  }

let size t = t.size

let grow t =
  let cap = Array.length t.ids in
  if t.size >= cap then begin
    let ids = Array.make (2 * cap) (Node_id.of_int 0) in
    Array.blit t.ids 0 ids 0 t.size;
    t.ids <- ids
  end

let intern t id =
  let raw = Node_id.to_int id in
  match Hashtbl.find t.tbl raw with
  | ix -> ix
  | exception Not_found ->
      let ix = t.size in
      Hashtbl.add t.tbl raw ix;
      grow t;
      t.ids.(ix) <- id;
      t.size <- t.size + 1;
      ix

let copy t = { tbl = Hashtbl.copy t.tbl; ids = Array.copy t.ids; size = t.size }
let find_opt t id = Hashtbl.find_opt t.tbl (Node_id.to_int id)
let mem t id = Hashtbl.mem t.tbl (Node_id.to_int id)

let extern t ix =
  if ix < 0 || ix >= t.size then
    invalid_arg (Printf.sprintf "Interner.extern: index %d out of 0..%d" ix (t.size - 1));
  t.ids.(ix)

let iter t f =
  for ix = 0 to t.size - 1 do
    f ix t.ids.(ix)
  done
