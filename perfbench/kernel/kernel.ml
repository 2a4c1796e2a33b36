(* The calibration kernel: a fixed computation that allocates small blocks,
   hashes and sorts, as a compile does.  It prints the seconds its body
   took.  It links nothing of the compiler, and runs as a process of its
   own, so no change to the compiler, its libraries or their build flags
   can move it (see ../calib.ml). *)

module Int_map = Map.Make (Int)

let kernel () =
  let st = Random.State.make [| 20240301 |] in
  let n = 60_000 in
  let h = Hashtbl.create 1024 in
  for i = 0 to n do
    Hashtbl.replace h (Random.State.int st 1_000_000) (string_of_int i)
  done;
  let sorted = List.sort compare (List.init n (fun _ -> Random.State.int st 1_000_000)) in
  let m =
    List.fold_left
      (fun m k -> if Hashtbl.mem h k then Int_map.add k (List.length [ k ]) m else m)
      Int_map.empty sorted
  in
  ignore (Sys.opaque_identity (Int_map.cardinal m))

let () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Printf.printf "%.9f\n" (Unix.gettimeofday () -. t0)
