(* Host-speed probe: prints the median time, in seconds, of [reps] runs
   of a fixed kernel of hashing, map insertion, list allocation and
   sorting.

   The host this benchmark runs on is shared, and its speed for
   memory-bound code drifts by ±15% over tens of seconds whatever the
   code does. The probe uses the standard library only, so no change to
   the repository can make it faster or slower, and it runs in a
   process of its own, so the measured program's heap cannot either.
   perfbench/run.py times it between consecutive instances; an
   instance's wall time over the probe time around it follows the code,
   not the host. *)

module IM = Map.Make (Int)

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i * 7919) i
  done;
  let m = ref IM.empty in
  for i = 0 to 50_000 do
    m := IM.add ((i * 31) land 0xfffff) [ i; i ] !m
  done;
  let a = Array.init 150_000 (fun i -> (i * 7919) land 0xffff) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, !m, a))

let reps = 3

let () =
  let times =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        kernel ();
        Unix.gettimeofday () -. t0)
  in
  Array.sort Float.compare times;
  Printf.printf "%.9f\n" times.(reps / 2)
