(* Machine-speed calibration.

   On a virtual machine whose cores are shared with other tenants, their
   load slows everything the benchmark runs, by a factor that changes
   within a second.  On a shared 2-vCPU Xeon VM the factor ranged from 1.0
   to 1.9 over an hour.  Over 25 windows of ten consecutive runs, a
   workload's geometric-mean latency as measured spread by 4-36%, and by
   more than 10% in 17 of them: wider than the bounds a regression is
   judged by.  Calibrated, it spread by under 10% in 22.

   A fixed computation run next to a measurement is slowed by the same
   factor.  So the benchmark runs one (kernel/kernel.exe) before and after
   every measurement, and, for a compile, also every [slice_s] of its
   running time: the compile's child is stopped, the kernel runs, the child
   continues.  Each running slice of the compile is divided by its
   slowdown,

     slowdown = sqrt (before * after) / reference_s,

   where [before] and [after] are the kernel's times on either side of the
   slice.  Summed, the slices give the compile's time at the reference
   speed.  On a 3 s DNN compile that left 2-6% between runs, against 21%
   as measured; calibrating only at a compile's ends left 20%.

   The kernel is a program of its own, built with flags of its own and
   linking nothing of the compiler, so a change anywhere else in the
   repository — the compiler, its libraries, their build flags or their
   runtime settings — moves the compile times and not the kernel.  Every
   run also keeps its values as measured. *)

(* The unit calibrated times are expressed in: the kernel's median time on
   a quiet 2-vCPU Xeon at 2.1 GHz, that is, one such core per kernel (and
   per domain).  Parent and change share it, so no comparison depends on
   it. *)
let reference_s = 0.0447

(* A compile runs at most this long between two kernel runs. *)
let slice_s = 0.5

let kernel_exe () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat "kernel" "kernel.exe")
  in
  if not (Sys.file_exists exe) then
    failwith (exe ^ " is missing: build perfbench/kernel/kernel.exe (perfbench/run.sh does)");
  exe

(* Seconds a kernel run takes, as the kernel times itself: the mean of
   [width] runs at once.  A compile with two domains is calibrated by two
   kernels, because the two vCPUs of a shared VM do not always run at once:
   two kernels together took from one to two times as long as one alone. *)
let sample width =
  let exe = kernel_exe () in
  let spawn () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process exe [| exe |] Unix.stdin wr Unix.stderr in
    Unix.close wr;
    (pid, rd)
  in
  let finish (pid, rd) =
    let ic = Unix.in_channel_of_descr rd in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    let rec reap () =
      try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    match (reap (), float_of_string_opt line) with
    | Unix.WEXITED 0, Some dt -> dt
    | _ -> failwith "calibration kernel failed"
  in
  Stats.mean (List.map finish (List.init width (fun _ -> spawn ())))

(* A sequence of measurements with a kernel run between each two, so each
   measurement shares its neighbours with the next.  [width] kernels run
   at once: the compile's number of domains. *)
type t = { width : int; mutable last : float }

let start ?(width = 1) () = { width; last = sample width }

let slowdown before after = sqrt (before *. after) /. reference_s

(* [measure t f] is [f ()] with the slowdown it ran under. *)
let measure t f =
  let before = t.last in
  let v = f () in
  t.last <- sample t.width;
  (v, slowdown before t.last)

(* When a sliced child ran, and how fast the machine was meanwhile: its
   running segments, each with its slowdown.  The first segment starts at
   minus infinity and the last ends when the child was reaped. *)
type timeline = (float * float * float) list

let overlap (a, b) (s0, s1) = Float.max 0.0 (Float.min b s1 -. Float.max a s0)

(* Time the child ran within [window], as measured and at the reference
   speed. *)
let running (tl : timeline) window =
  List.fold_left (fun acc (s0, s1, _) -> acc +. overlap window (s0, s1)) 0.0 tl

let at_ref (tl : timeline) window =
  List.fold_left (fun acc (s0, s1, k) -> acc +. (overlap window (s0, s1) /. k)) 0.0 tl

(* [call t f] is {!Fork.call} [f], with the child stopped every [slice_s]
   of running time for a kernel run. *)
let call t f =
  let kernels = ref [ t.last ] and pauses = ref [] in
  let paused () =
    let p0 = Unix.gettimeofday () in
    kernels := sample t.width :: !kernels;
    pauses := (p0, Unix.gettimeofday ()) :: !pauses
  in
  let v = Fork.call ~pause_every:(slice_s, paused) f in
  let reaped = Unix.gettimeofday () in
  t.last <- sample t.width;
  let kernels = Array.of_list (List.rev (t.last :: !kernels)) in
  let pauses = List.rev !pauses in
  let starts = Float.neg_infinity :: List.map snd pauses in
  let ends = List.map fst pauses @ [ reaped ] in
  let timeline =
    List.mapi
      (fun i (s0, s1) -> (s0, s1, slowdown kernels.(i) kernels.(i + 1)))
      (List.combine starts ends)
  in
  (v, timeline)

(* The median of measured durations, as measured and at the reference
   speed. *)
let medians measured =
  ( Stats.median (List.map fst measured),
    Stats.median (List.map (fun (v, slowdown) -> v /. slowdown) measured) )
