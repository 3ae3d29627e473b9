(* One experiment of the bench suite, and the helpers every family shares.

   An experiment is a value: [run] produces its table, the complexity fits
   it measured and the side files it ships next to its artifact, and
   [claims] re-evaluates the paper-derived bounds it exercises over that
   output alone. main.ml runs and writes every experiment the same way;
   nothing reaches it through global state. *)

open Ubpa_util

type cfg = {
  fast : bool;  (** [--fast]: shrink the sweeps that are not claims. *)
  jobs : int option;
      (** [--jobs N]; None falls back to UBPA_JOBS, then 1 (see Pool.map). *)
}

type output = {
  table : Table.t;
  complexity : Ubpa_obs.Complexity.fit list;
      (** Lands in the artifact's schema-v2 [complexity] block. *)
  side_files : (string * string) list;
      (** (file name, contents), written next to the artifact. *)
}

type t = {
  id : string;  (** "E1", "CX2", ...: the artifact is BENCH_<id>.json. *)
  title : string;  (** One-line summary for the usage text. *)
  run : cfg -> output;
  claims : cfg -> output -> Ubpa_report.Artifact.claim list;
}

let table_only table = { table; complexity = []; side_files = [] }

(* A side file is shipped only when the run captured something. *)
let side_file name contents = if contents = "" then [] else [ (name, contents) ]

(* An experiment whose output is its table alone and whose claims read no
   configuration. *)
let tabular ~id ~title run claims =
  {
    id;
    title;
    run = (fun cfg -> table_only (run cfg));
    claims = (fun _ o -> claims o);
  }

let sizes cfg = if cfg.fast then [ 4; 7; 13 ] else [ 4; 7; 13; 25; 40; 61 ]
let f_sweep cfg = if cfg.fast then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6 ]
let seeds cfg = if cfg.fast then [ 1L; 2L ] else [ 1L; 2L; 3L; 4L; 5L ]
let bool_cell = Table.cell_bool
let f_of_n n = Ubpa_scenarios.Scenarios.max_f n

(* Run one sweep cell per item on the pool and append each cell's rows in
   submission order: the finished table is byte-identical to a serial run
   at any --jobs (every cell owns its seeds; see Ubpa_harness.Pool). *)
let pool_rows cfg t items f =
  List.iter
    (List.iter (Table.add_row t))
    (Ubpa_harness.Pool.map ?jobs:cfg.jobs f items)

(* FNV-1a over a string; used for the deterministic digests in SCALE and
   PERF2 (deliberately our own arithmetic — Hashtbl.hash may differ across
   compiler versions, this must not). *)
let fnv1a (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let digest_cell h = Printf.sprintf "%016Lx" h

(* ------------------------------------------------------------------ *)
(* Machine-checked claims                                               *)
(*                                                                      *)
(* Every experiment names the paper-derived bounds it exercises; each    *)
(* bound is re-evaluated over the finished table and lands as a          *)
(* pass/fail entry in the JSON artifact, where `bench_diff` (and the CI  *)
(* claim gate) refuses regressions. Bounds with a constant factor use    *)
(* the measured constants with headroom, so they fail loudly if a        *)
(* future change loses the complexity class, not on run-to-run noise.   *)
(* ------------------------------------------------------------------ *)

let claim cid description holds =
  {
    Ubpa_report.Artifact.cid;
    description;
    status = (if holds then Ubpa_report.Artifact.Pass else Fail);
  }

let fit_holds (o : output) name =
  List.exists
    (fun (f : Ubpa_obs.Complexity.fit) -> String.equal f.name name && f.holds)
    o.complexity

(* Cell accessors over one finished table, opened by every claims
   function: [let open (val cells o : CELLS) in]. *)
module type CELLS = sig
  val rows : string list list
  val get : string list -> string -> string
  val geti : string list -> string -> int option
  val getf : string list -> string -> float option
  val forall : (string list -> bool) -> bool

  val all_yes : string -> bool
  (** Boolean columns may contain non-boolean filler cells (summary rows);
      those are ignored, but at least one "yes" must be present. *)

  val consistent :
    key:(string list -> 'k) -> behaviour:(string list -> 'b) -> bool
  (** Rows that share a [key] agree on [behaviour]. *)

  val le_cols : string -> string -> bool
  (** Row-wise integer comparison of two columns; rows where either cell
      is not an integer are skipped. *)
end

let cells (o : output) : (module CELLS) =
  (module struct
    let cols = Table.columns o.table
    let rows = Table.rows o.table

    let idx name =
      let rec go i = function
        | [] ->
            failwith
              (Printf.sprintf "claims(%s): no column %S" (Table.title o.table)
                 name)
        | c :: _ when String.equal c name -> i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 cols

    let get row name = List.nth row (idx name)
    let geti row name = int_of_string_opt (get row name)
    let getf row name = float_of_string_opt (get row name)
    let forall f = List.for_all f rows

    let all_yes name =
      forall (fun r -> get r name <> "no")
      && List.exists (fun r -> get r name = "yes") rows

    let consistent ~key ~behaviour =
      forall (fun r ->
          forall (fun r' -> key r <> key r' || behaviour r = behaviour r'))

    let le_cols a b =
      forall (fun r ->
          match (geti r a, geti r b) with
          | Some x, Some y -> x <= y
          | _ -> true)
  end)
