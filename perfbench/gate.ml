(* Correctness gate.

   Every measured run is judged before its numbers count. A workload is a
   set of operations — one correct node's accept or decision on the
   simulator workloads, one root's verdict on the checker workload — and
   an operation fails when its node never decided, disagreed with the
   others, produced a value no correct input supports, or when the whole
   run missed the digest committed for the default seed. *)

let default_seed = 1

(* Never used while tuning the benchmark: the seed a later claim is
   re-checked on. Only the property checks apply to it. *)
let held_out_seed = 2

type pinned = { digest : string; counts : (string * int) list }

(* Outputs, rounds, deliveries and wire totals (checker statistics on
   check-rb) of each workload at [default_seed]. Regenerate with
   [bench.exe --workload W --seed 1 --pinned] only when a change is meant
   to alter behaviour. *)
let pinned =
  [
    ( "rb-1sender",
      {
        digest = "7e39cb23cd2e6dff76e06203bfff0553";
        counts =
          [
            ("rounds", 3);
            ("deliveries", 2004002);
            ("wire_msgs", 2004002);
            ("wire_bits", 272624352);
          ];
      } );
    ( "consensus-byz-faults",
      {
        digest = "b202792c0f7fefdb040b4e322b4cae58";
        counts =
          [
            ("rounds", 15);
            ("deliveries", 1540256);
            ("wire_msgs", 1540256);
            ("wire_bits", 110817632);
          ];
      } );
    ( "committee-flood",
      {
        digest = "ea4fea52045747f00487f89d2b83f796";
        counts =
          [
            ("rounds", 13);
            ("deliveries", 1694906);
            ("wire_msgs", 1694906);
            ("wire_bits", 119558324);
          ];
      } );
    ( "check-rb",
      {
        digest = "55ef90201c42191a014f5eb431222a1c";
        counts =
          [
            ("roots", 2);
            ("explored", 61762);
            ("distinct", 62678);
            ("dedup_hits", 60684);
            ("sym_skips", 38752);
            ("frontier_peak", 30800);
            ("depth", 3);
          ];
      } );
  ]

type verdict = { attempted : int; failed : int; reasons : string list }

let digest_of_string s = Digest.to_hex (Digest.string s)

(* One optional decision per operation. The reference value is the most
   common decision; an operation fails when it has no decision, differs
   from the reference, or is not [valid]. *)
let decisions ~equal ~valid (ops : 'v option list) =
  let counts =
    List.fold_left
      (fun acc -> function
        | None -> acc
        | Some v ->
            let rec bump = function
              | [] -> [ (v, 1) ]
              | (w, k) :: rest when equal v w -> (w, k + 1) :: rest
              | x :: rest -> x :: bump rest
            in
            bump acc)
      [] ops
  in
  let reference =
    List.fold_left
      (fun best (v, k) ->
        match best with Some (_, kb) when kb >= k -> best | _ -> Some (v, k))
      None counts
    |> Option.map fst
  in
  let failed = ref 0 and reasons = ref [] in
  let fail why =
    incr failed;
    if not (List.mem why !reasons) then reasons := why :: !reasons
  in
  List.iter
    (function
      | None -> fail "no decision"
      | Some v ->
          if not (valid v) then fail "invalid decision"
          else
            match reference with
            | Some r when not (equal v r) -> fail "disagreement"
            | _ -> ())
    ops;
  { attempted = List.length ops; failed = !failed; reasons = List.rev !reasons }

(* A run-wide property (monitor verdict, checker verdict): when it does
   not hold, every operation of the run fails. *)
let require ok why v =
  if ok then v
  else { v with failed = v.attempted; reasons = v.reasons @ [ why ] }

(* At the default seed the run must also reproduce the pinned digest and
   counts exactly. *)
let against_pinned ~workload ~seed ~digest ~counts v =
  if seed <> default_seed then v
  else
    match List.assoc_opt workload pinned with
    | None -> require false "no pinned digest for the default seed" v
    | Some p ->
        let v = require (String.equal p.digest digest) "digest mismatch" v in
        List.fold_left
          (fun v (name, expected) ->
            match List.assoc_opt name counts with
            | Some got when got = expected -> v
            | _ -> require false (name ^ " mismatch") v)
          v p.counts
