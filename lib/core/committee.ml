open Ubpa_util

(* Distinct derivation tags keep the two sampling streams (committee,
   per-node attestor sets) independent consumers of one public seed: a
   new stream never perturbs an existing one, which is what keeps
   committed baselines stable as samplers are added. *)
let gamma = 0x9E3779B97F4A7C15L
let committee_tag = 0x636F6D6D4B53L (* "commKS" *)
let attestor_tag = 0x61747473L (* "atts" *)

let derive ~seed ~tag ~salt =
  Rng.create
    (Int64.logxor seed
       (Int64.mul gamma (Int64.add tag (Int64.of_int (salt + 1)))))

let ceil_log2 n =
  let rec go acc m = if m <= 1 then acc else go (acc + 1) ((m + 1) / 2) in
  go 0 (max 1 n)

let committee_size n =
  if n <= 0 then 0
  else min n (int_of_float (ceil (2.0 *. sqrt (float_of_int n))))

let attestor_size n = min (committee_size n) (max 3 (2 * ceil_log2 n))

(* [count] distinct indices in [0, bound) by rejection — O(count) expected
   draws while count is well below bound (committees are ~2√n of n;
   attestor sets ~2·log n of k), degrading gracefully to coupon-collector
   cost only on toy populations where count ≈ bound. Ascending. *)
let sample_indices rng ~bound ~count =
  if count <= 0 || bound <= 0 then [||]
  else begin
    let seen = Bytes.make bound '\000' in
    let out = Array.make count 0 in
    let got = ref 0 in
    while !got < count do
      let i = Rng.int rng bound in
      if Bytes.unsafe_get seen i = '\000' then begin
        Bytes.unsafe_set seen i '\001';
        out.(!got) <- i;
        incr got
      end
    done;
    Array.sort Int.compare out;
    out
  end

(* Indices into the *sorted committee* of the members node [self]
   samples as its attestors. Keyed by the public seed and the sampler's
   own identifier, so every node can recompute anyone's attestor set. *)
let attestor_indices ~seed ~n ~k ~self =
  let rng = derive ~seed ~tag:attestor_tag ~salt:(Node_id.to_int self) in
  sample_indices rng ~bound:k ~count:(min k (attestor_size n))

type sample = {
  seed : int64;
  universe : Node_id.t array;
  committee : Node_id.t array;
  committee_list : Node_id.t list;
  committee_set : Node_id.Set.t;
  attestors : Node_id.t array array;
  audiences : Node_id.t list array;
}

let sample ~seed ~universe =
  let u = Array.of_list (Node_id.sorted universe) in
  let n = Array.length u in
  let committee =
    Array.map (Array.get u)
      (sample_indices
         (derive ~seed ~tag:committee_tag ~salt:0)
         ~bound:n ~count:(committee_size n))
  in
  let k = Array.length committee in
  let att_ix = Array.map (fun self -> attestor_indices ~seed ~n ~k ~self) u in
  (* Walking observers in descending order prepends each one, so every
     audience comes out ascending. *)
  let audiences = Array.make k [] in
  for o = n - 1 downto 0 do
    Array.iter (fun a -> audiences.(a) <- u.(o) :: audiences.(a)) att_ix.(o)
  done;
  let committee_list = Array.to_list committee in
  {
    seed;
    universe = u;
    committee;
    committee_list;
    committee_set = Node_id.Set.of_list committee_list;
    attestors = Array.map (Array.map (Array.get committee)) att_ix;
    audiences;
  }

(* One entry: the sample for the last (seed, universe) asked for, the
   universe compared physically so a hit costs no list walk. Published
   whole through the atomic, so a domain reads either the old entry or
   the new one, never a partly built one; racing misses only rebuild. *)
let memo : (int64 * Node_id.t list * sample) option Atomic.t = Atomic.make None

let shared ~seed ~universe =
  match Atomic.get memo with
  | Some (s, u, smp) when Int64.equal s seed && u == universe -> smp
  | _ ->
      let smp = sample ~seed ~universe in
      Atomic.set memo (Some (seed, universe, smp));
      smp

(* Position of [id] in the ascending array [a], or -1. *)
let find_sorted a id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = Node_id.compare a.(mid) id in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let is_member s id = Node_id.Set.mem id s.committee_set

let attestors_of s self =
  let i = find_sorted s.universe self in
  if i >= 0 then s.attestors.(i)
  else
    (* Outside the universe: the same public draw, made on demand. *)
    Array.map (Array.get s.committee)
      (attestor_indices ~seed:s.seed ~n:(Array.length s.universe)
         ~k:(Array.length s.committee) ~self)

let audience_of s member =
  let i = find_sorted s.committee member in
  if i >= 0 then s.audiences.(i) else []

let members ~seed ~universe = (shared ~seed ~universe).committee_list

let attestors ~seed ~universe ~self =
  Array.to_list (attestors_of (shared ~seed ~universe) self)

let audience ~seed ~universe ~member =
  audience_of (shared ~seed ~universe) member
