open Pom_poly
open Pom_dsl

module Names = Map.Make (String)

(* a map, not an association list: pricing reads it for every array of
   every fusion group of every design point a search prices *)
type factors = int list Names.t

type t = {
  func : Func.t;
  stmts : Stmt_poly.t list;
  partitions : (string * (int list * Schedule.partition_kind)) list;
  factors : factors;
}

let unpartitioned = List.map (fun _ -> 1)

let of_func_unscheduled func =
  {
    func;
    stmts =
      List.mapi
        (fun k c -> Stmt_poly.of_compute ~position:k c)
        (Func.computes func);
    partitions = [];
    factors =
      List.fold_left
        (fun m (p : Placeholder.t) ->
          Names.add p.Placeholder.name (unpartitioned p.Placeholder.shape) m)
        Names.empty (Func.placeholders func);
  }

(* The last partition directive per array wins, and it applies only with
   one positive factor per dimension of the array: decided here, once, so
   every reader of [factors] prices, lowers and checks the same banks. *)
let apply t directive =
  match (directive : Schedule.t) with
  | Schedule.Partition { array; factors; kind } ->
      {
        t with
        partitions =
          (array, (factors, kind)) :: List.remove_assoc array t.partitions;
        factors =
          Names.update array
            (Option.map (fun current ->
                 if
                   List.compare_lengths factors current = 0
                   && List.for_all (fun f -> f > 0) factors
                 then factors
                 else unpartitioned current))
            t.factors;
      }
  | Schedule.Auto_dse -> t
  | _ -> { t with stmts = Transform.apply_directive t.stmts directive }

let apply_all t directives = List.fold_left apply t directives

let of_func func = apply_all (of_func_unscheduled func) (Func.directives func)

let reference func =
  apply_all (of_func_unscheduled func) (List.map fst (Func.structure func))

let stmt t name =
  match
    List.find_opt (fun s -> Stmt_poly.name s = name) t.stmts
  with
  | Some s -> s
  | None -> invalid_arg ("Prog.stmt: no statement " ^ name)

let partition_of t array =
  Option.value ~default:[] (Names.find_opt array t.factors)

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
