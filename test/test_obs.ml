(* Wire-level observability: sizing pins, wire-counter accounting, and the
   cross-core differential.

   The structural sizes pinned here are load-bearing: encoded_bits feeds
   the committed CX1 baseline, so a change in the wire-encoding model
   shows up as a baseline diff AND as a failure here, with the test naming
   the constant that moved. *)

open Ubpa_util
open Ubpa_sim
open Ubpa_obs
open Helpers

let id i = Node_id.of_int i

(* ----- structural sizing model ----- *)

let test_sizing_primitives () =
  check_int "int is one word" 64 (Sizing.structural_bits 42);
  check_int "unit is immediate" 64 (Sizing.structural_bits ());
  check_int "bool is immediate" 64 (Sizing.structural_bits true);
  check_int "string: word + 8 bits/byte" (64 + 24) (Sizing.structural_bits "abc");
  check_int "empty string is just the header" 64 (Sizing.structural_bits "");
  check_int "float box: tag + word" (8 + 64) (Sizing.structural_bits 1.5);
  check_int "pair: tag + 2 words" (8 + 128) (Sizing.structural_bits (1, 2));
  check_int "None is immediate" 64 (Sizing.structural_bits None);
  check_int "Some int: tag + word" (8 + 64) (Sizing.structural_bits (Some 1));
  check_int "two-cons list" 208 (Sizing.structural_bits [ 1; 2 ]);
  check_int "float array: header + payload" (64 + 128)
    (Sizing.structural_bits [| 1.0; 2.0 |])

let test_sizing_monotone_in_payload () =
  (* A protocol embedding a bigger value must never get cheaper. *)
  check_true "longer string costs more"
    (Sizing.structural_bits "long payload" > Sizing.structural_bits "p")

(* ----- per-protocol encoded_bits pins ----- *)

let test_encoded_bits_consensus_core () =
  let module C = Unknown_ba.Consensus_core.Make (Unknown_ba.Value.Int) in
  check_int "Init is an immediate constructor" 64 (C.encoded_bits C.Init);
  check_int "Input carries one word" (8 + 64) (C.encoded_bits (C.Input 5));
  check_int "Cand_echo carries a node id" (8 + 64)
    (C.encoded_bits (C.Cand_echo (id 7)));
  check_int "Prefer and Strongprefer price identically"
    (C.encoded_bits (C.Prefer 1))
    (C.encoded_bits (C.Strongprefer 1))

let test_encoded_bits_binary_consensus () =
  let module B = Unknown_ba.Binary_consensus in
  (* The hand-written sizer: 3 tag bits, 1 bit per vote — deliberately far
     below the structural default, which would price a bool at a word. *)
  check_int "Init" 3 (B.encoded_bits B.Init);
  check_int "Input is tag + 1 vote bit" 4 (B.encoded_bits (B.Input true));
  check_int "Support is tag + 1 vote bit" 4 (B.encoded_bits (B.Support false));
  check_int "Opinion is tag + 1 vote bit" 4 (B.encoded_bits (B.Opinion true));
  check_int "Cand_echo is tag + an id word" 67
    (B.encoded_bits (B.Cand_echo (id 3)));
  check_true "sizer undercuts the structural default"
    (B.encoded_bits (B.Input true)
    < Protocol.structural_bits (B.Input true))

let test_encoded_bits_structural_protocols () =
  (* Structural protocols must agree with the sizing module verbatim. *)
  let module R = Unknown_ba.Reliable_broadcast.Make (Unknown_ba.Value.String) in
  let m = R.inject (R.Payload "hello") in
  check_int "RB inherits the structural sizer"
    (Protocol.structural_bits m) (R.encoded_bits m)

(* ----- wire counters ----- *)

let fill_wire w =
  Wire.record w ~round:1 ~sender:(id 0) ~recipient:(id 1) ~kind:"echo" ~bits:72;
  Wire.record w ~round:1 ~sender:(id 0) ~recipient:(id 2) ~kind:"echo" ~bits:72;
  Wire.record w ~round:2 ~sender:(id 2) ~recipient:(id 1) ~kind:"vote" ~bits:4;
  w

let test_wire_accumulates () =
  let w = fill_wire (Wire.create ()) in
  check_int "messages" 3 (Wire.messages w);
  check_int "bits" 148 (Wire.bits w);
  check_int "rounds tracked" 2 (List.length (Wire.per_round w));
  check_int "nodes tracked" 2 (List.length (Wire.per_node w));
  (match List.assoc_opt "echo" (Wire.per_kind w) with
  | Some c -> check_int "echo bits" 144 c.Wire.bits
  | None -> Alcotest.fail "no echo kind");
  check_true "equal to itself" (Wire.equal w (fill_wire (Wire.create ())));
  check_false "fresh wire differs" (Wire.equal w (Wire.create ()))

let test_wire_json_roundtrip () =
  let w = fill_wire (Wire.create ()) in
  match Wire.of_json (Wire.to_json w) with
  | Ok w' -> check_true "wire round-trips" (Wire.equal w w')
  | Error msg -> Alcotest.fail msg

(* ----- complexity fits ----- *)

let test_fit_quadratic_holds () =
  let pts = List.map (fun n -> (n, float_of_int (3 * n * n))) [ 5; 9; 13 ] in
  let f = Complexity.fit ~name:"q" ~exponent:2 pts in
  check_true "holds" f.Complexity.holds;
  check_true "constant calibrated on the smallest n"
    (Float.abs (f.Complexity.constant -. 3.) < 1e-9);
  check_true "slope near 2" (Float.abs (f.Complexity.slope -. 2.) < 0.05)

let test_fit_rejects_cubic_against_quadratic () =
  let pts = List.map (fun n -> (n, float_of_int (n * n * n))) [ 5; 9; 13; 21 ] in
  let f = Complexity.fit ~name:"c" ~exponent:2 pts in
  check_false "cubic growth breaks an n^2 envelope" f.Complexity.holds

let test_fit_headroom_absorbs_constants () =
  (* Same exponent, noisy constant within headroom: still holds. *)
  let pts = [ (5, 80.); (9, 243.); (13, 530.) ] in
  let f = Complexity.fit ~name:"n2" ~exponent:2 pts in
  check_true "within 2x headroom of the calibrated envelope"
    f.Complexity.holds

let test_fit_json_roundtrip () =
  let f =
    Complexity.fit ~name:"rt" ~exponent:3
      [ (5, 125.); (9, 729.); (13, 2197.) ]
  in
  match Complexity.of_json (Complexity.to_json f) with
  | Ok f' -> check_true "fit round-trips" (f = f')
  | Error msg -> Alcotest.fail msg

(* ----- cross-core wire differential ----- *)

(* Same randomized traffic shape as the delivery differential, but the
   property under test is the accounting: the arena core's hooks, charged
   the way the network charges them, must report the identical wire
   multiset — totals, per round, per node, per sender, per kind — as the
   reference core's per-delivery stream. *)
let kind_of payload = Printf.sprintf "k%d" (payload mod 3)

let prop_wire_cross_core_identity =
  QCheck2.Test.make ~count:120
    ~name:"wire counters: arena core == reference core on random traffic"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let present, envelopes = random_traffic rng in
      let w_ref = Wire.create () and w = Wire.create () in
      let _, c_ref =
        reference_round ~wire:w_ref ~round:1 ~kind:kind_of
          ~bits:Sizing.structural_bits ~equal:Int.equal ~present ~envelopes ()
      in
      let _, c =
        arena_round ~wire:w ~round:1 ~kind:kind_of ~bits:Sizing.structural_bits
          ~equal:Int.equal ~present ~envelopes ()
      in
      c_ref = c && Wire.equal w_ref w && Wire.messages w_ref = c_ref)

let test_on_deliver_matches_count () =
  (* The hooks account exactly the counted deliveries: the reference
     core's [on_deliver] once per delivery, the arena core's once per
     unicast plus [k] per broadcast. *)
  let rng = Rng.create 0xB17C0DEL in
  for _ = 1 to 25 do
    let present, envelopes = random_traffic rng in
    let w_ref = Wire.create () and w = Wire.create () in
    let _, c_ref =
      reference_round ~wire:w_ref ~round:1 ~kind:kind_of
        ~bits:Sizing.structural_bits ~equal:Int.equal ~present ~envelopes ()
    in
    let _, c =
      arena_round ~wire:w ~round:1 ~kind:kind_of ~bits:Sizing.structural_bits
        ~equal:Int.equal ~present ~envelopes ()
    in
    check_int "reference hook fired once per delivery" c_ref
      (Wire.messages w_ref);
    check_int "arena hooks account every delivery" c (Wire.messages w)
  done

(* Once-per-broadcast accounting against a per-delivery replay, on the
   shapes where the two could part: the same sender broadcasting one
   payload twice, a unicast followed by an equal broadcast (the broadcast
   excludes the served recipient), and a broadcast followed by an equal
   unicast (suppressed). Several rounds through one arena state, so round
   breakdowns and recipients charged across rounds are covered too. The
   arena side feeds [Metrics] the way the network does (one call of
   [count = k] per broadcast), the reference side one call per delivery. *)
type pattern = Dup_broadcast | Unicast_then_broadcast | Broadcast_then_unicast

let gen_mixed =
  QCheck2.Gen.(
    let* universe = int_range 2 8 in
    let* rounds =
      list_size (int_range 1 3)
        (pair
           (array_size (pure universe) bool)
           (list_size (int_bound 12)
              (quad
                 (oneofl
                    [
                      Dup_broadcast;
                      Unicast_then_broadcast;
                      Broadcast_then_unicast;
                    ])
                 (int_bound (universe - 1))
                 (int_bound (universe - 1))
                 (int_bound 4))))
    in
    pure rounds)

let prop_broadcast_once_matches_replay =
  QCheck2.Test.make ~count:200
    ~name:"wire: once-per-broadcast accounting == per-delivery replay"
    gen_mixed
    (fun rounds ->
      let state = Delivery.arena_create () in
      let w_ref = Wire.create () and w = Wire.create () in
      let m_ref = Metrics.create () and m = Metrics.create () in
      let bits payload = 16 + (8 * payload) in
      List.iteri
        (fun i (mask, patterns) ->
          let round = i + 1 in
          let present =
            List.init (Array.length mask) id
            |> List.filteri (fun j _ -> mask.(j))
            |> Node_id.Set.of_list
          in
          let envelopes =
            List.concat_map
              (fun (shape, src, dst, p) ->
                let b = Envelope.broadcast ~src:(id src) p
                and u = Envelope.send ~src:(id src) ~dst:(id dst) p in
                match shape with
                | Dup_broadcast -> [ b; b ]
                | Unicast_then_broadcast -> [ u; b ]
                | Broadcast_then_unicast -> [ b; u ])
              patterns
          in
          ignore
            (arena_round ~state ~metrics:m ~wire:w ~round ~kind:kind_of ~bits
               ~equal:Int.equal ~present ~envelopes ());
          ignore
            (reference_round ~metrics:m_ref ~wire:w_ref ~round ~kind:kind_of
               ~bits ~equal:Int.equal ~present ~envelopes ()))
        rounds;
      let universe = List.init 8 id in
      Wire.equal w_ref w
      && Json.to_string (Wire.to_json w_ref) = Json.to_string (Wire.to_json w)
      && List.for_all
           (fun n -> Wire.budget_of w_ref n = Wire.budget_of w n)
           universe
      && Wire.max_budget w_ref = Wire.max_budget w
      && Metrics.wire_bits_per_round m_ref = Metrics.wire_bits_per_round m
      && Metrics.wire_msgs m_ref = Metrics.wire_msgs m)

let suite =
  ( "obs",
    [
      quick "sizing: primitive pins" test_sizing_primitives;
      quick "sizing: monotone in payload" test_sizing_monotone_in_payload;
      quick "encoded_bits: consensus core" test_encoded_bits_consensus_core;
      quick "encoded_bits: binary consensus sizer"
        test_encoded_bits_binary_consensus;
      quick "encoded_bits: structural protocols"
        test_encoded_bits_structural_protocols;
      quick "wire: accumulates and compares" test_wire_accumulates;
      quick "wire: json round-trip" test_wire_json_roundtrip;
      quick "complexity: quadratic fit holds" test_fit_quadratic_holds;
      quick "complexity: wrong exponent rejected"
        test_fit_rejects_cubic_against_quadratic;
      quick "complexity: headroom absorbs constants"
        test_fit_headroom_absorbs_constants;
      quick "complexity: json round-trip" test_fit_json_roundtrip;
      quick "on_deliver fires once per delivery" test_on_deliver_matches_count;
    ]
    @ qcheck_cases
        [ prop_wire_cross_core_identity; prop_broadcast_once_matches_replay ] )
