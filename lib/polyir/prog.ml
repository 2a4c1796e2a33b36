open Pom_poly
open Pom_dsl

type t = {
  func : Func.t;
  stmts : Stmt_poly.t list;
  partitions : (string * (int list * Schedule.partition_kind)) list;
}

let of_func_unscheduled func =
  {
    func;
    stmts =
      List.mapi
        (fun k c -> Stmt_poly.of_compute ~position:k c)
        (Func.computes func);
    partitions = [];
  }

let apply t directive =
  match (directive : Schedule.t) with
  | Schedule.Partition { array; factors; kind } ->
      {
        t with
        partitions =
          (array, (factors, kind)) :: List.remove_assoc array t.partitions;
      }
  | Schedule.Auto_dse -> t
  | _ -> { t with stmts = Transform.apply_directive t.stmts directive }

let apply_all t directives = List.fold_left apply t directives

let of_func func = apply_all (of_func_unscheduled func) (Func.directives func)

let stmt t name =
  match
    List.find_opt (fun s -> Stmt_poly.name s = name) t.stmts
  with
  | Some s -> s
  | None -> invalid_arg ("Prog.stmt: no statement " ^ name)

let partition_of t (p : Placeholder.t) =
  match List.assoc_opt p.Placeholder.name t.partitions with
  | Some (factors, _) when List.length factors = Placeholder.rank p -> factors
  | Some _ | None -> List.map (fun _ -> 1) p.Placeholder.shape

let to_ast t =
  Ast_build.build
    (List.map
       (fun (s : Stmt_poly.t) ->
         { Ast_build.name = Stmt_poly.name s; domain = s.domain; sched = s.sched })
       t.stmts)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Stmt_poly.pp)
    t.stmts
