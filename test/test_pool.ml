(* The multicore sweep executor and the dense-index primitives it feeds:
   Pool.map must be List.map with workers (same results, same order, same
   exception), and Interner and Tally must be observably identical, down to
   iteration order, to the hashtable and list structures they replace. *)

open Ubpa_util
open Ubpa_harness
open Helpers

(* ----- Pool.map ----- *)

let jobs_levels = [ 1; 2; 8 ]

let test_pool_map_ordered () =
  let items = List.init 200 (fun i -> i - 50) in
  let f n = (n * n) - (3 * n) in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs f items))
    jobs_levels

let test_pool_map_uneven_work () =
  (* Cells with wildly different costs still merge in submission order. *)
  let items = List.init 40 (fun i -> i) in
  let f n =
    let spin = if n mod 7 = 0 then 40_000 else 10 in
    let acc = ref n in
    for _ = 1 to spin do
      acc := ((!acc * 31) + 1) land 0xffffff
    done;
    !acc
  in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs f items))
    jobs_levels

let test_pool_map_empty_and_small () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "empty jobs=%d" jobs)
        [] (Pool.map ~jobs (fun x -> x) []);
      Alcotest.(check (list int))
        (Printf.sprintf "singleton jobs=%d" jobs)
        [ 42 ]
        (Pool.map ~jobs (fun x -> x + 41) [ 1 ]))
    jobs_levels

let test_pool_map_jobs_zero () =
  (* ~jobs:0 means "all cores"; semantics must not change. *)
  let items = List.init 50 (fun i -> i) in
  Alcotest.(check (list int))
    "jobs=0" (List.map succ items)
    (Pool.map ~jobs:0 succ items)

let test_pool_map_exception () =
  (* The exception of the lowest-indexed failing item propagates, and the
     pool is not leaked: the next map on the same backend still works. *)
  let f n = if n = 5 || n = 17 then failwith (Printf.sprintf "boom-%d" n) else n in
  List.iter
    (fun jobs ->
      (match Pool.map ~jobs f (List.init 30 (fun i -> i)) with
      | _ -> Alcotest.failf "jobs=%d: expected an exception" jobs
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "lowest-index failure at jobs=%d" jobs)
            "boom-5" msg);
      Alcotest.(check (list int))
        (Printf.sprintf "pool usable after failure at jobs=%d" jobs)
        [ 2; 3; 4 ]
        (Pool.map ~jobs succ [ 1; 2; 3 ]))
    jobs_levels

let prop_pool_matches_list_map =
  QCheck2.Test.make ~count:100
    ~name:"Pool.map ~jobs:k equals List.map for k in 1..8"
    QCheck2.Gen.(
      pair (int_range 1 8) (list_size (int_range 0 60) (int_range (-1000) 1000)))
    (fun (jobs, items) ->
      Pool.map ~jobs (fun n -> (n * 7) - 1) items
      = List.map (fun n -> (n * 7) - 1) items)

(* ----- Interner ----- *)

let test_interner_roundtrip () =
  let ids = Node_id.scatter ~seed:2026L 64 in
  let intr = Interner.create ~hint:8 () in
  List.iteri
    (fun i id ->
      check_int (Printf.sprintf "first-seen index %d" i) i (Interner.intern intr id))
    ids;
  check_int "size" 64 (Interner.size intr);
  List.iteri
    (fun i id ->
      check_int (Printf.sprintf "re-intern %d idempotent" i) i
        (Interner.intern intr id);
      check_true (Printf.sprintf "mem %d" i) (Interner.mem intr id);
      Alcotest.(check (option int))
        (Printf.sprintf "find_opt %d" i)
        (Some i) (Interner.find_opt intr id);
      check_true
        (Printf.sprintf "extern inverse %d" i)
        (Node_id.equal id (Interner.extern intr i)))
    ids;
  check_int "size unchanged by lookups" 64 (Interner.size intr);
  let stranger = Node_id.of_int 123_456_789 in
  check_false "unknown id" (Interner.mem intr stranger);
  Alcotest.(check (option int)) "unknown find_opt" None
    (Interner.find_opt intr stranger);
  Alcotest.check_raises "extern out of range"
    (Invalid_argument "Interner.extern: index 64 out of 0..63") (fun () ->
      ignore (Interner.extern intr 64))

let test_interner_iter_order () =
  let ids = Node_id.scatter ~seed:7L 20 in
  let intr = Interner.create () in
  List.iter (fun id -> ignore (Interner.intern intr id)) ids;
  let seen = ref [] in
  Interner.iter intr (fun ix id -> seen := (ix, id) :: !seen);
  let seen = List.rev !seen in
  check_int "iter covers all" 20 (List.length seen);
  List.iteri
    (fun i (ix, id) ->
      check_int (Printf.sprintf "iter index %d" i) i ix;
      check_true
        (Printf.sprintf "iter id %d" i)
        (Node_id.equal id (List.nth ids i)))
    seen

(* ----- Bitset ----- *)

let test_bitset_basics () =
  let b = Bitset.create ~hint:4 () in
  check_int "empty count" 0 (Bitset.count b);
  check_false "empty mem" (Bitset.mem b 0);
  check_false "mem far beyond capacity" (Bitset.mem b 100_000);
  Bitset.add b 3;
  Bitset.add b 0;
  Bitset.add b 3;
  check_int "idempotent add" 2 (Bitset.count b);
  check_true "mem 0" (Bitset.mem b 0);
  check_true "mem 3" (Bitset.mem b 3);
  check_false "mem 1" (Bitset.mem b 1);
  (* growth well past the hint *)
  Bitset.add b 977;
  check_true "grown mem" (Bitset.mem b 977);
  check_false "grown non-member" (Bitset.mem b 976);
  check_int "count after growth" 3 (Bitset.count b);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Bitset.add: negative index") (fun () -> Bitset.add b (-1))

let test_bitset_clear () =
  let b = Bitset.create ~hint:4 () in
  Bitset.clear b;
  check_int "clear on empty" 0 (Bitset.count b);
  List.iter (Bitset.add b) [ 0; 7; 512 ];
  Bitset.clear b;
  check_int "count after clear" 0 (Bitset.count b);
  check_false "mem 0 after clear" (Bitset.mem b 0);
  check_false "mem 512 after clear" (Bitset.mem b 512);
  (* The grown capacity survives the clear and stays usable. *)
  Bitset.add b 512;
  check_true "re-add after clear" (Bitset.mem b 512);
  check_int "count after re-add" 1 (Bitset.count b)

(* ----- Arena ----- *)

let test_arena_basics () =
  let a = Arena.create ~hint:2 ~dummy:(-1) () in
  check_int "empty length" 0 (Arena.length a);
  for i = 0 to 99 do
    Arena.push a (i * i)
  done;
  check_int "length after pushes" 100 (Arena.length a);
  check_true "capacity grew" (Arena.capacity a >= 100);
  check_int "get 0" 0 (Arena.get a 0);
  check_int "get 99" (99 * 99) (Arena.get a 99);
  check_int "unsafe_get" (7 * 7) (Arena.unsafe_get a 7);
  Arena.set a 7 42;
  check_int "set/get" 42 (Arena.get a 7);
  check_int "fold sums"
    (List.fold_left ( + ) 0
       (List.init 100 (fun i -> if i = 7 then 42 else i * i)))
    (Arena.fold a ~init:0 ~f:( + ));
  let seen = ref 0 in
  Arena.iteri a (fun i v -> if i = 9 then seen := v);
  check_int "iteri passes indices" 81 !seen;
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Arena.get: index 100 out of 0..99") (fun () ->
      ignore (Arena.get a 100));
  let cap = Arena.capacity a in
  Arena.clear a;
  check_int "clear drops length" 0 (Arena.length a);
  check_int "clear keeps capacity" cap (Arena.capacity a);
  Arena.push a 5;
  check_int "reusable after clear" 5 (Arena.get a 0);
  Arena.reset a;
  check_int "reset drops length" 0 (Arena.length a);
  Alcotest.check_raises "read after reset"
    (Invalid_argument "Arena.get: index 0 out of 0..-1") (fun () ->
      ignore (Arena.get a 0))

(* ----- Interner vs Hashtbl model ----- *)

(* The chained-hashtable interner the open-addressing table replaced, kept
   as the oracle: same contract, different layout. *)
module Model_interner = struct
  type t = {
    tbl : (int, int) Hashtbl.t;
    mutable ids : Node_id.t array;
    mutable size : int;
  }

  let create () = { tbl = Hashtbl.create 16; ids = [||]; size = 0 }

  let intern t id =
    let raw = Node_id.to_int id in
    match Hashtbl.find t.tbl raw with
    | ix -> ix
    | exception Not_found ->
        let ix = t.size in
        Hashtbl.add t.tbl raw ix;
        t.ids <- Array.append t.ids [| id |];
        t.size <- t.size + 1;
        ix

  let copy t =
    { tbl = Hashtbl.copy t.tbl; ids = Array.copy t.ids; size = t.size }
  let find_opt t id = Hashtbl.find_opt t.tbl (Node_id.to_int id)
  let mem t id = Hashtbl.mem t.tbl (Node_id.to_int id)
  let extern t ix = t.ids.(ix)
  let size t = t.size

  let iter t f =
    for ix = 0 to t.size - 1 do
      f ix t.ids.(ix)
    done
end

(* Raw ids that stress the table: 0, the extremes, negatives, and runs of
   ids equal modulo every power-of-two capacity up to 2^20. *)
let gen_raw_id =
  QCheck2.Gen.(
    frequency
      [
        (1, oneofl [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ]);
        (3, map2 (fun k j -> k lsl j) (int_range (-40) 40) (int_range 3 20));
        ( 2,
          map2 (fun k c -> (k lsl 10) + c) (int_range (-64) 64) (int_bound 3)
        );
        (3, int_range (-500) 500);
        (1, int);
      ])

let interner_agrees intr model =
  Interner.size intr = Model_interner.size model
  &&
  let listed iter t =
    let acc = ref [] in
    iter t (fun ix id -> acc := (ix, Node_id.to_int id) :: !acc);
    List.rev !acc
  in
  listed Interner.iter intr = listed Model_interner.iter model
  && List.for_all
       (fun ix ->
         Node_id.equal (Interner.extern intr ix)
           (Model_interner.extern model ix))
       (List.init (Interner.size intr) Fun.id)

type interner_op = Intern of int | Lookup of int

let prop_interner_matches_model =
  QCheck2.Test.make ~count:300
    ~name:"Interner matches a Hashtbl model across rehashes"
    QCheck2.Gen.(
      list_size (int_range 0 600)
        (map2
           (fun intern raw -> if intern then Intern raw else Lookup raw)
           (frequencyl [ (3, true); (1, false) ])
           gen_raw_id))
    (fun ops ->
      let intr = Interner.create ~hint:1 () in
      let model = Model_interner.create () in
      List.for_all
        (fun op ->
          match op with
          | Intern raw ->
              let id = Node_id.of_int raw in
              Interner.intern intr id = Model_interner.intern model id
          | Lookup raw ->
              let id = Node_id.of_int raw in
              Interner.find_opt intr id = Model_interner.find_opt model id
              && Interner.mem intr id = Model_interner.mem model id)
        ops
      && interner_agrees intr model)

let prop_interner_copy_independent =
  QCheck2.Test.make ~count:200
    ~name:"Interner.copy is independent after growth on both sides"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 100) gen_raw_id)
        (list_size (int_range 0 200) gen_raw_id)
        (list_size (int_range 0 200) gen_raw_id))
    (fun (shared, left, right) ->
      (* Disjoint branches: the copy only ever sees ids the original never
         interns, and vice versa. *)
      let right = List.filter (fun r -> not (List.mem r left)) right in
      let left = List.filter (fun r -> not (List.mem r right)) left in
      let orig = Interner.create () and model = Model_interner.create () in
      List.iter
        (fun r ->
          ignore (Interner.intern orig (Node_id.of_int r));
          ignore (Model_interner.intern model (Node_id.of_int r)))
        shared;
      let branch = Interner.copy orig in
      let branch_model = Model_interner.copy model in
      List.iter
        (fun r ->
          ignore (Interner.intern orig (Node_id.of_int r));
          ignore (Model_interner.intern model (Node_id.of_int r)))
        left;
      List.iter
        (fun r ->
          ignore (Interner.intern branch (Node_id.of_int r));
          ignore (Model_interner.intern branch_model (Node_id.of_int r)))
        right;
      let unseen_by intr own other =
        List.for_all
          (fun r ->
            List.mem r own || not (Interner.mem intr (Node_id.of_int r)))
          other
      in
      interner_agrees orig model
      && interner_agrees branch branch_model
      && unseen_by orig (shared @ left) right
      && unseen_by branch (shared @ right) left)

(* ----- Tally vs the list-based tally, exact order ----- *)

(* The list-based tally [Tally] used before contents were indexed, kept as
   the oracle. Entries are newest first and every lookup is a scan. *)
module List_tally = struct
  type 'k t = {
    compare : 'k -> 'k -> int;
    mutable entries : ('k * Node_id.Set.t ref) list;
  }

  let create ~compare = { compare; entries = [] }
  let find t k = List.find_opt (fun (k', _) -> t.compare k k' = 0) t.entries

  let add t ~sender k =
    match find t k with
    | Some (_, ss) -> ss := Node_id.Set.add sender !ss
    | None -> t.entries <- (k, ref (Node_id.Set.singleton sender)) :: t.entries

  let count t k =
    match find t k with Some (_, ss) -> Node_id.Set.cardinal !ss | None -> 0

  let senders t k =
    match find t k with None -> [] | Some (_, ss) -> Node_id.Set.elements !ss

  let contents t = List.map fst t.entries

  let max_by_count t =
    let best acc (k, ss) =
      let c = Node_id.Set.cardinal !ss in
      match acc with
      | None -> Some (k, c)
      | Some (k', c') ->
          if c > c' || (c = c' && t.compare k k' < 0) then Some (k, c) else acc
    in
    List.fold_left best None t.entries

  let meeting t ~threshold =
    List.filter_map
      (fun (k, ss) ->
        if threshold (Node_id.Set.cardinal !ss) then Some k else None)
      t.entries
end

let prop_tally_matches_list_oracle =
  QCheck2.Test.make ~count:300
    ~name:"tally equals the list-tally oracle in exact order"
    QCheck2.Gen.(
      pair bool
        (list_size (int_range 0 120) (pair (int_bound 15) (int_bound 40))))
    (fun (coarse, events) ->
      (* [coarse] makes distinct integers the same content (x/3), so the
         first-seen representative must win, as in the oracle. *)
      let compare =
        if coarse then fun a b -> Int.compare (a / 3) (b / 3) else Int.compare
      in
      let ids = Node_id.scatter ~seed:55L 16 in
      let id_of i = List.nth ids i in
      let oracle = List_tally.create ~compare in
      let own = Tally.create ~compare ~ids:(Id_table.create ()) in
      (* A table another node filled first, in the opposite order: the
         indices differ from [own]'s, the answers must not. *)
      let table = Id_table.create () in
      List.iter (fun id -> ignore (Id_table.index table id)) (List.rev ids);
      let shared = Tally.create ~compare ~ids:table in
      List.iter
        (fun (sender_ix, content) ->
          let sender = id_of sender_ix in
          List_tally.add oracle ~sender content;
          Tally.add own ~sender content;
          Tally.add_index shared (Id_table.index table sender) content)
        events;
      let agrees t =
        Tally.contents t = List_tally.contents oracle
        && Tally.max_by_count t = List_tally.max_by_count oracle
        && List.for_all
             (fun k ->
               Tally.count t k = List_tally.count oracle k
               && Tally.senders t k = List_tally.senders oracle k)
             (List.init 42 Fun.id)
        && List.for_all
             (fun thr ->
               Tally.meeting t ~threshold:(fun c -> c >= thr)
               = List_tally.meeting oracle ~threshold:(fun c -> c >= thr))
             [ 1; 2; 3; 5 ]
      in
      agrees own && agrees shared)

(* ----- Bitset.fold vs a naive per-bit fold ----- *)

let prop_bitset_fold_matches_naive =
  QCheck2.Test.make ~count:300
    ~name:"Bitset.fold equals a per-bit fold, after copy and clear too"
    QCheck2.Gen.(
      pair (int_range 1 300)
        (list_size (int_range 0 60) (int_bound 2_000)))
    (fun (hint, adds) ->
      let naive b =
        let acc = ref [] in
        for ix = 0 to 2_100 do
          if Bitset.mem b ix then acc := ix :: !acc
        done;
        List.rev !acc
      in
      let folded b =
        List.rev (Bitset.fold b ~init:[] ~f:(fun acc ix -> ix :: acc))
      in
      let iterated b =
        let acc = ref [] in
        Bitset.iter b (fun ix -> acc := ix :: !acc);
        List.rev !acc
      in
      let agrees b = folded b = naive b && iterated b = naive b in
      let b = Bitset.create ~hint () in
      List.iter (Bitset.add b) adds;
      let snapshot = Bitset.copy b in
      let full = agrees b && folded b = List.sort_uniq Int.compare adds in
      Bitset.clear b;
      full && agrees snapshot && agrees b && folded b = [])

let suite =
  ( "pool+dense-index",
    [
      quick "Pool.map preserves order at jobs=1/2/8" test_pool_map_ordered;
      quick "Pool.map with uneven per-cell work" test_pool_map_uneven_work;
      quick "Pool.map on empty and singleton lists" test_pool_map_empty_and_small;
      quick "Pool.map ~jobs:0 uses all cores" test_pool_map_jobs_zero;
      quick "Pool.map re-raises the lowest-indexed exception"
        test_pool_map_exception;
      quick "Interner intern/extern round-trip" test_interner_roundtrip;
      quick "Interner.iter ascending first-seen order" test_interner_iter_order;
      quick "Bitset membership, growth, idempotence" test_bitset_basics;
      quick "Bitset.clear keeps capacity" test_bitset_clear;
      quick "Arena push/get/clear/reset" test_arena_basics;
    ]
    @ qcheck_cases
        [
          prop_pool_matches_list_map;
          prop_tally_matches_list_oracle;
          prop_interner_matches_model;
          prop_interner_copy_independent;
          prop_bitset_fold_matches_naive;
        ]
  )
