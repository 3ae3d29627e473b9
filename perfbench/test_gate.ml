(* Negative self-tests of the benchmark's correctness gate: a wrong
   output, a missing decision, a red monitor, a tampered digest or a
   drifted count must each count as failed operations. *)

open Perfbench

let checks = ref 0
let failures = ref 0

let expect name cond =
  incr checks;
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let valid v = v = 0 || v = 1
let judge ops = Gate.decisions ~equal:Int.equal ~valid ops

let pinned_rb =
  match List.assoc_opt "rb-1sender" Gate.pinned with
  | Some p -> p
  | None -> failwith "rb-1sender has no pinned digest"

let clean = { Gate.attempted = 10; failed = 0; reasons = [] }

let pinned_check ?(seed = Gate.default_seed) ?(digest = pinned_rb.digest)
    ?(counts = pinned_rb.counts) () =
  Gate.against_pinned ~workload:"rb-1sender" ~seed ~digest ~counts clean

let () =
  let v = judge [ Some 1; Some 1; Some 1 ] in
  expect "agreeing valid decisions pass" (v.attempted = 3 && v.failed = 0);
  let v = judge [ Some 1; Some 0; Some 1; Some 1 ] in
  expect "one disagreeing decision fails once" (v.failed = 1);
  let v = judge [ Some 1; Some 3; Some 1 ] in
  expect "an invalid decision fails" (v.failed = 1);
  let v = judge [ Some 1; None; Some 1 ] in
  expect "a missing decision fails" (v.failed = 1);
  let v = judge [ None; None ] in
  expect "no decision at all fails every operation" (v.failed = 2);
  let v = Gate.require false "monitor violation" clean in
  expect "a red run-wide property fails every operation"
    (v.failed = v.attempted && v.reasons = [ "monitor violation" ]);
  expect "the pinned digest passes at the default seed"
    ((pinned_check ()).failed = 0);
  expect "a tampered digest fails every operation"
    ((pinned_check ~digest:("0" ^ pinned_rb.digest) ()).failed = 10);
  let drifted =
    List.map
      (fun (k, n) -> if k = "deliveries" then (k, n + 1) else (k, n))
      pinned_rb.counts
  in
  expect "a drifted delivery count fails every operation"
    ((pinned_check ~counts:drifted ()).failed = 10);
  expect "a missing count fails every operation"
    ((pinned_check ~counts:[] ()).failed = 10);
  expect "other seeds are judged by properties only"
    ((pinned_check ~seed:Gate.held_out_seed ~digest:"x" ()).failed = 0);
  expect "a workload without a pinned digest fails at the default seed"
    ((Gate.against_pinned ~workload:"unknown" ~seed:Gate.default_seed
        ~digest:"x" ~counts:[] clean)
       .failed = 10);
  Printf.printf "perfbench gate: %d/%d checks passed\n" (!checks - !failures)
    !checks;
  if !failures > 0 then exit 1
