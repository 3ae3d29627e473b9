let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

let add_id b id =
  Buffer.add_char b '#';
  add_int b (Node_id.to_int id)

let add_list b ~sep add l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b sep;
      add b x)
    l

let add_option b add = function
  | None -> Buffer.add_char b '-'
  | Some x -> add b x

(* Outside any box, [Format] gives the last break hint still pending at the
   flush an unknown width and breaks the line there, however short the
   text; past the margin it breaks at every hint. An enclosing hbox
   resolves every width before the flush, and a margin no text reaches
   keeps nested boxes on the line too. *)
let to_string pp v =
  let b = Buffer.create 16 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_margin ppf 1_000_000_000;
  Format.pp_set_max_indent ppf 999_999_999;
  Format.pp_open_hbox ppf ();
  pp ppf v;
  Format.pp_close_box ppf ();
  Format.pp_print_flush ppf ();
  Buffer.contents b

let memo compare pp =
  let texts = ref [] in
  fun v ->
    match List.find_opt (fun (v', _) -> compare v v' = 0) !texts with
    | Some (_, s) -> s
    | None ->
        let s = to_string pp v in
        texts := (v, s) :: !texts;
        s
