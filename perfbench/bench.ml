(* One measured instance of one workload, in a fresh process:

     bench.exe --workload W --seed N [--trace 0|1] [--tamper digest|output]
     bench.exe --workload W --seed N --pinned

   prints a single JSON line with the instance's set-up and run times,
   allocation, digest, operation verdict and (traced) per-layer numbers.
   [--pinned] prints the workload's digest and counts in the form
   [Gate.pinned] commits them. perfbench/run.py aggregates instances. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N [--trace 0|1] \
     [--tamper digest|output] [--pinned]";
  exit 2

let () =
  let workload = ref None
  and seed = ref Gate.default_seed
  and traced = ref false
  and tamper = ref Workloads.No_tamper
  and pinned = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some s -> seed := s | None -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with
        | "0" -> traced := false
        | "1" -> traced := true
        | _ -> usage ());
        parse rest
    | "--tamper" :: t :: rest ->
        (tamper :=
           match t with
           | "digest" -> Workloads.Tamper_digest
           | "output" -> Workloads.Tamper_output
           | _ -> usage ());
        parse rest
    | "--pinned" :: rest ->
        pinned := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let name = match !workload with Some w -> w | None -> usage () in
  let run =
    match List.assoc_opt name Workloads.all with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" name
          (String.concat ", " (List.map fst Workloads.all));
        exit 2
  in
  let i = run ~seed:!seed ~traced:!traced ~tamper:!tamper in
  if !pinned then begin
    Printf.printf
      "    ( %S,\n      {\n        digest = %S;\n        counts =\n          [\n"
      name i.digest;
    List.iter
      (fun (k, v) -> Printf.printf "            (%S, %d);\n" k v)
      i.counts;
    print_string "          ];\n      } );\n"
  end
  else
    let open Ubpa_util in
    let floats l = `Assoc (List.map (fun (k, v) -> (k, `Float v)) l) in
    let v = i.verdict in
    print_endline
      (Json.to_string ~pretty:false
         (`Assoc
           [
             ("workload", `String name);
             ("seed", `Int !seed);
             ("traced", `Bool !traced);
             ("setup_s", `Float i.setup_s);
             ("wall_s", `Float i.wall_s);
             ("work", `Int i.work);
             ("digest", `String i.digest);
             ("counts", `Assoc (List.map (fun (k, n) -> (k, `Int n)) i.counts));
             ("attempted", `Int v.attempted);
             ("failed", `Int v.failed);
             ("reasons", `List (List.map (fun r -> `String r) v.reasons));
             ("gc", floats i.gc);
             ("layers", floats i.layers);
             ( "wire_replay_equal",
               match i.wire_replay_equal with None -> `Null | Some b -> `Bool b
             );
           ]))
