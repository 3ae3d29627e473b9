(* Negative claim tests: a claim is only evidence if it can fail.

   Each case feeds one experiment's claims the committed bench/baseline
   table, where the claim must pass, and the same table with one cell
   flipped to the defect the claim names, where it must fail. The claims
   read only the run's output, so a loaded artifact stands in for a run. *)

open Ubpa_util
open Ubpa_report
open Ubpa_bench

let load id =
  match Artifact.load (Filename.concat "baseline" (Artifact.filename id)) with
  | Ok a -> a
  | Error e -> Alcotest.failf "loading the %s baseline: %s" id e

let column (a : Artifact.t) name =
  let rec go i = function
    | [] -> Alcotest.failf "%s has no column %S" a.experiment name
    | c :: _ when String.equal c name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 a.columns

(* The baseline rows with the [col] cell of the first row whose cells
   match [where] (column, value) replaced by [cell]. *)
let flip (a : Artifact.t) ~where ~col cell =
  let matches row =
    List.for_all
      (fun (name, v) -> String.equal (List.nth row (column a name)) v)
      where
  in
  let target = column a col and flipped = ref false in
  let rows =
    List.map
      (fun row ->
        if !flipped || not (matches row) then row
        else begin
          flipped := true;
          Alcotest.(check bool) "the flip changes the cell" false
            (String.equal (List.nth row target) cell);
          List.mapi (fun i c -> if i = target then cell else c) row
        end)
      a.rows
  in
  if not !flipped then Alcotest.failf "%s: no row to flip" a.experiment;
  rows

let passes (e : Experiment.t) (a : Artifact.t) rows cid =
  let table = Table.create ~title:a.title ~columns:a.columns in
  List.iter (Table.add_row table) rows;
  let out = { Experiment.table; complexity = a.complexity; side_files = [] } in
  match
    List.find_opt
      (fun (c : Artifact.claim) -> String.equal c.cid cid)
      (e.claims { fast = a.fast; jobs = None } out)
  with
  | Some c -> c.status = Artifact.Pass
  | None -> Alcotest.failf "%s has no claim %s" e.id cid

(* One claim: its baseline passes, and each (defect, row filter, column,
   cell) flip fails. *)
let cases (e : Experiment.t) cid flips =
  Alcotest.test_case (cid ^ ": committed baseline passes") `Quick (fun () ->
      let a = load e.id in
      Alcotest.(check bool) "pass" true (passes e a a.rows cid))
  :: List.map
       (fun (defect, where, col, cell) ->
         Alcotest.test_case (cid ^ ": " ^ defect ^ " fails") `Quick (fun () ->
             let a = load e.id in
             Alcotest.(check bool) "fail" false
               (passes e a (flip a ~where ~col cell) cid)))
       flips

let () =
  Alcotest.run "bench-claims"
    [
      ( "negative",
        cases Engine.scale "SCALE.identical-deliveries"
          [
            ( "a reference row's digest differs",
              [ ("engine", "reference") ],
              "digest",
              "0000000000000000" );
          ]
        @ cases Engine.perf2 "PERF2.deterministic-across-jobs"
            [
              ( "a jobs=8 match cell reading no",
                [ ("sweep", "consensus-f"); ("jobs", "8") ],
                "match",
                "no" );
              ( "a jobs=8 digest differing from jobs=1",
                [ ("sweep", "consensus-f"); ("jobs", "8") ],
                "digest",
                "0000000000000000" );
            ]
        @ cases Cx.cx1 "CX1.cross-core-identity"
            [
              ( "one run diverging from the reference core",
                [ ("algo", "consensus") ],
                "cross-core",
                "no" );
              ( "an oracle wire digest differing from the run's",
                [ ("algo", "binary"); ("n", "13") ],
                "ref digest",
                "0000000000000000" );
              ( "an oracle delivered count differing from the run's",
                [ ("algo", "rb"); ("n", "31") ],
                "ref delivered",
                "0" );
            ]
        @ cases Cx.cx2 "CX2.cross-core-identity"
            [
              ( "an overlap run's wire digest differing from the oracle's",
                [ ("workload", "split"); ("n", "301") ],
                "digest",
                "0000000000000000" );
              ( "an overlap run's oracle round count differing",
                [ ("workload", "unanimous"); ("n", "301") ],
                "ref rounds",
                "0" );
            ] );
    ]
