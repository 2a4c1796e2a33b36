(* pom_refute: property-based refutation of the compiler's trust anchors.

   Four oracle families (see lib/refute): `poly` cross-checks projection
   and feasibility against brute-force point enumeration, `semantic`
   cross-checks the legality engine against observed execution,
   `degrade` replays compiles under injected faults asserting the POM30x
   degradation contract, and `qor` refutes the QoR model against
   operational lower bounds.  Counterexamples are shrunk to minimal form
   and, with --corpus, saved as replayable .case files. *)

open Cmdliner
module Refute = Pom_refute

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:"Random seed.  Two runs with the same seed, case count, and \
              family generate the same cases.")

let cases_arg =
  Arg.(
    value & opt int 1000
    & info [ "cases" ] ~docv:"N" ~doc:"Cases to generate per family.")

let family_arg =
  Arg.(
    value & opt_all string []
    & info [ "family" ] ~docv:"FAM"
        ~doc:
          "Oracle family to run: poly, semantic, degrade, or qor.  Repeatable; \
           default all four.")

let budget_arg =
  Arg.(
    value & opt (some float) None
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per family: each family searches under its \
           own budget, so the families that run first cannot starve the \
           rest.  The engine stops cleanly at a case boundary when it \
           expires; counterexamples found before expiry are kept.")

let corpus_arg =
  Arg.(
    value & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Counterexample corpus directory.  Every case already in it is \
           replayed first (a failing replay is a resurfaced regression), \
           and new shrunk counterexamples are saved into it.")

let replay_only_arg =
  Arg.(
    value & flag
    & info [ "replay-only" ]
        ~doc:"Only replay the --corpus; do not search for new cases.")

let inject_arg =
  Arg.(
    value & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Arm deterministic fault injection (site=kind@n, comma-separated) \
           for the whole run — mostly useful to watch the degrade family \
           catch a seeded contract violation.  Also read from POM_FAULTS.")

let parse_families = function
  | [] -> Ok Refute.Engine.all_families
  | names ->
      List.fold_left
        (fun acc n ->
          match (acc, Refute.Engine.family_of_string n) with
          | Error e, _ -> Error e
          | Ok fs, Ok f -> Ok (fs @ [ f ])
          | Ok _, Error e -> Error e)
        (Ok []) names

let replay_corpus dir =
  let results = Refute.Engine.replay dir in
  let regressions =
    List.filter (fun (_, _, v) -> Refute.Oracle.is_fail v) results
  in
  List.iter
    (fun (path, _, v) ->
      Format.printf "replay %s: %a@." (Filename.basename path)
        Refute.Oracle.pp_verdict v)
    results;
  (List.length results, List.length regressions)

let run seed cases families budget corpus replay_only inject =
  match parse_families families with
  | Error e ->
      Format.eprintf "pom_refute: %s@." e;
      1
  | Ok families -> (
      (match inject with
      | Some spec -> Pom.Resilience.Fault.configure spec
      | None -> Pom.Resilience.Fault.configure_from_env ());
      let replayed, regressions =
        match corpus with
        | Some dir when Sys.file_exists dir -> replay_corpus dir
        | _ -> (0, 0)
      in
      if replayed > 0 then
        Format.printf "corpus: %d case(s) replayed, %d regression(s)@.@."
          replayed regressions;
      let found = ref 0 in
      let on_finding dir (f : Refute.Engine.finding) =
        incr found;
        Format.printf "@.counterexample (%s, shrunk %d step(s)):@.  %s@."
          f.Refute.Engine.diag.Pom.Analysis.Diagnostic.code
          f.Refute.Engine.shrink_steps
          f.Refute.Engine.diag.Pom.Analysis.Diagnostic.message;
        Format.printf "  %s@." (Refute.Case.to_string f.Refute.Engine.case);
        match dir with
        | Some dir ->
            let path = Refute.Corpus.save dir f.Refute.Engine.case in
            Format.printf "  saved %s@." path
        | None -> ()
      in
      if not replay_only then
        List.iter
          (fun family ->
            let stats =
              Pom.Resilience.Budget.with_budget ?deadline_s:budget (fun () ->
                  Refute.Engine.run ~seed ~cases
                    ~on_finding:(on_finding corpus) family)
            in
            Format.printf "%a@." Refute.Engine.pp_stats stats;
            if stats.Refute.Engine.precision_misses > 0 then
              Format.printf
                "hint [POM405]: %d schedule(s) rejected by the legality \
                 engine executed bit-identically anyway — imprecision, not \
                 unsoundness@."
                stats.Refute.Engine.precision_misses)
          families;
      match (regressions, !found) with
      | 0, 0 -> 0
      | _ -> 2)

let cmd =
  let doc = "refute the POM compiler's trust anchors by differential testing" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"when every case passed (no counterexamples).";
      Cmd.Exit.info 1 ~doc:"on usage errors.";
      Cmd.Exit.info 2
        ~doc:"when a counterexample was found or a corpus replay regressed.";
    ]
  in
  Cmd.v
    (Cmd.info "pom_refute" ~doc ~exits)
    Term.(
      const run $ seed_arg $ cases_arg $ family_arg $ budget_arg $ corpus_arg
      $ replay_only_arg $ inject_arg)

let () = exit (Cmd.eval' cmd)
