(* Experiment harness.

   The paper is theory-only (no tables or figures), so EXPERIMENTS.md
   defines the evaluation suite: E1-E13 (one table per claim of the
   paper), the ablations A1-A4, and the engine, complexity, runtime and
   model-checking experiments (PERF2, SCALE, R1, CX1, CX2, RT1-RT3, MC1).
   Each is one [Experiment.t] value that owns its table, claims and side
   files; this executable parses flags, runs the selected experiments in
   list order and writes every artifact the same way. `--only E3,SCALE`
   selects experiments, `--fast` shrinks the sweeps, `--jobs N` runs
   sweep cells on N worker domains (tables stay byte-identical — see
   PERF2). *)

open Ubpa_util
open Ubpa_report
open Ubpa_bench

let experiments =
  Paper.experiments @ Ablation.experiments @ Engine.experiments
  @ Cx.experiments @ Rt.experiments @ Mc.experiments

let usage =
  "usage: main.exe [options]\n\nexperiments:\n"
  ^ String.concat ""
      (List.map
         (fun (e : Experiment.t) -> Printf.sprintf "  %-6s %s\n" e.id e.title)
         experiments)
  ^ "\noptions:"

let write_file dir name contents =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Run one experiment, print its table, write its CSV, artifact and side
   files as asked; returns the number of failed claims. *)
let run_one cfg ~csv_dir ~json_dir (e : Experiment.t) =
  Printf.printf "\n[%s] running...\n%!" e.id;
  let t0 = Clock.now_ms () in
  let out = e.run cfg in
  let elapsed_ms = Clock.elapsed_ms ~since:t0 in
  Table.print out.table;
  Option.iter
    (fun dir ->
      Artifact.mkdir_p dir;
      write_file dir (e.id ^ ".csv") (Table.to_csv out.table))
    csv_dir;
  match json_dir with
  | None -> 0
  | Some dir ->
      let claims = e.claims cfg out in
      let columns = Table.columns out.table and rows = Table.rows out.table in
      let path =
        Artifact.write ~dir
          {
            Artifact.experiment = e.id;
            title = Table.title out.table;
            fast = cfg.fast;
            seeds = List.map Int64.to_int (Experiment.seeds cfg);
            elapsed_ms;
            columns;
            rows;
            claims;
            metrics = Artifact.derive_metrics ~columns ~rows;
            complexity = out.complexity;
          }
      in
      List.iter (fun (name, contents) -> write_file dir name contents)
        out.side_files;
      let failed =
        List.filter_map
          (fun (c : Artifact.claim) ->
            if c.status = Artifact.Fail then Some c.cid else None)
          claims
      in
      Printf.printf "wrote %s (%d claims%s)\n%!" path (List.length claims)
        (match failed with
        | [] -> ""
        | l -> ", FAILED: " ^ String.concat ", " l);
      List.length failed

let () =
  let fast = ref false and jobs = ref None in
  let only = ref None and csv_dir = ref None and json_dir = ref None in
  let spec =
    Arg.align
      [
        ("--fast", Arg.Set fast, " shrink every sweep (CI smoke mode)");
        ( "--only",
          Arg.String (fun s -> only := Some (String.split_on_char ',' s)),
          "ID[,ID] run the selected experiments only (e.g. --only E3,SCALE)"
        );
        ( "--csv",
          Arg.String (fun d -> csv_dir := Some d),
          "DIR write one CSV per experiment into DIR" );
        ( "--json",
          Arg.String (fun d -> json_dir := Some d),
          "DIR write one BENCH_<ID>.json artifact per experiment into DIR" );
        ( "--jobs",
          Arg.Int
            (fun j ->
              if j < 0 then raise (Arg.Bad "--jobs expects N >= 0");
              jobs := Some j),
          "N worker domains for sweep cells (0 = all cores; default \
           UBPA_JOBS, then 1)" );
      ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let selected =
    match !only with
    | None -> experiments
    | Some ids ->
        let known = List.map (fun (e : Experiment.t) -> e.id) experiments in
        List.iter
          (fun id ->
            if not (List.mem id known) then begin
              Printf.eprintf "main.exe: --only: no experiment %S\n" id;
              Arg.usage spec usage;
              exit 2
            end)
          ids;
        List.filter (fun (e : Experiment.t) -> List.mem e.id ids) experiments
  in
  let cfg = { Experiment.fast = !fast; jobs = !jobs } in
  let failures =
    List.fold_left
      (fun acc e ->
        acc + run_one cfg ~csv_dir:!csv_dir ~json_dir:!json_dir e)
      0 selected
  in
  if failures > 0 then begin
    Printf.eprintf "%d claim(s) failed\n%!" failures;
    exit 1
  end
