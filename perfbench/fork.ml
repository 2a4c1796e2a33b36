(* Running a function in a freshly forked child.  The caller must never
   have spawned a second domain: OCaml 5's Unix.fork fails once one
   exists. *)

let now = Unix.gettimeofday

(* [call f] runs [f t_fork] in a forked child and returns its value.
   [pause_every = (dt, paused)] stops the child each [dt] seconds it is
   still running and calls [paused ()] before letting it continue.  The
   child leaves with [_exit] (no at_exit handlers, nothing inherited
   flushed twice) unless [clean_exit], which a child that spawned worker
   processes needs so their at_exit shutdown runs. *)
let call ?(clean_exit = false) ?pause_every f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t_fork = now () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let reply = try Ok (f t_fork) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc reply [];
      close_out oc;
      if clean_exit then exit 0 else Unix._exit 0
  | pid ->
      Unix.close wr;
      let rec waitpid flags =
        try snd (Unix.waitpid flags pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags
      in
      (* set when the child turns out to have exited while being stopped *)
      let exited = ref None in
      (match pause_every with
      | None -> ()
      | Some (dt, paused) ->
          (* the child's reply (or its death) makes the pipe readable *)
          let rec wait () =
            match Unix.select [ rd ] [] [] dt with
            | [], _, _ -> (
                Unix.kill pid Sys.sigstop;
                match waitpid [ Unix.WUNTRACED ] with
                | Unix.WSTOPPED _ ->
                    paused ();
                    Unix.kill pid Sys.sigcont;
                    wait ()
                | status -> exited := Some status)
            | _ -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          in
          wait ());
      let ic = Unix.in_channel_of_descr rd in
      let reply =
        try Marshal.from_channel ic
        with End_of_file | Failure _ -> Error "child died before answering"
      in
      close_in ic;
      let status = match !exited with Some s -> s | None -> waitpid [] in
      (match (reply, status) with
      | Ok v, Unix.WEXITED 0 -> Ok v
      | Ok _, _ -> Error "child exited abnormally"
      | (Error _ as e), _ -> e)
