(* What the benchmark reads about a compiling process from /proc. *)

(* /proc files report no length, so they are read to their end. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) in kB of [pid], or of this process. *)
let peak_rss_kb ?pid () =
  let path =
    match pid with
    | Some p -> Printf.sprintf "/proc/%d/status" p
    | None -> "/proc/self/status"
  in
  let lines = String.split_on_char '\n' (read_file path) in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id
  | None -> failwith (path ^ ": no VmHWM line")

(* User plus system CPU seconds of [pid] so far.  /proc counts in clock
   ticks of 1/100 s (USER_HZ on Linux). *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces: fields count from its closing ')',
     after which come the state (field 3) ... utime (14) and stime (15) *)
  let after = String.rindex stat ')' + 2 in
  let rest = String.sub stat after (String.length stat - after) in
  let fields = String.split_on_char ' ' rest in
  let field n = float_of_string (List.nth fields (n - 3)) in
  (field 14 +. field 15) /. 100.0

(* This process's own CPU seconds, every thread included. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
