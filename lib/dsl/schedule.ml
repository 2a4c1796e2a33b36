type partition_kind = Cyclic | Block | Complete

type t =
  | Interchange of { compute : string; d1 : string; d2 : string }
  | Split of {
      compute : string;
      dim : string;
      factor : int;
      outer : string;
      inner : string;
    }
  | Tile of {
      compute : string;
      d1 : string;
      d2 : string;
      f1 : int;
      f2 : int;
      o1 : string;
      o2 : string;
      i1 : string;
      i2 : string;
    }
  | Skew of {
      compute : string;
      d1 : string;
      d2 : string;
      f1 : int;
      f2 : int;
      n1 : string;
      n2 : string;
    }
  | After of { compute : string; anchor : string; level : int }
  | Fuse of { c1 : string; c2 : string; level : int }
  | Reverse of { compute : string; dim : string; new_dim : string }
  | Pipeline of { compute : string; dim : string; ii : int }
  | Unroll of { compute : string; dim : string; factor : int }
  | Partition of { array : string; factors : int list; kind : partition_kind }
  | Auto_dse

let interchange compute d1 d2 = Interchange { compute; d1; d2 }

let split compute dim factor outer inner =
  if factor <= 1 then invalid_arg "Schedule.split: factor must exceed 1";
  Split { compute; dim; factor; outer; inner }

let tile compute d1 d2 f1 f2 o1 o2 i1 i2 =
  if f1 <= 0 || f2 <= 0 then invalid_arg "Schedule.tile: factors must be positive";
  Tile { compute; d1; d2; f1; f2; o1; o2; i1; i2 }

let skew compute d1 d2 f1 f2 n1 n2 =
  if abs f2 <> 1 then
    invalid_arg "Schedule.skew: inner factor must be 1 or -1 (unimodular)";
  Skew { compute; d1; d2; f1; f2; n1; n2 }

let after compute ~anchor ~level = After { compute; anchor; level }

let fuse c1 c2 ~level = Fuse { c1; c2; level }

let reverse compute dim new_dim = Reverse { compute; dim; new_dim }

let pipeline compute dim ii =
  if ii < 1 then invalid_arg "Schedule.pipeline: II must be at least 1";
  Pipeline { compute; dim; ii }

let unroll compute dim factor =
  if factor < 1 then invalid_arg "Schedule.unroll: factor must be positive";
  Unroll { compute; dim; factor }

let partition array factors kind = Partition { array; factors; kind }

let auto_dse = Auto_dse

let is_hardware = function
  | Pipeline _ | Unroll _ | Partition _ -> true
  | Interchange _ | Split _ | Tile _ | Skew _ | After _ | Fuse _ | Reverse _
  | Auto_dse ->
      false

let kind_name = function
  | Cyclic -> "cyclic"
  | Block -> "block"
  | Complete -> "complete"

let to_string = function
  | Interchange { compute; d1; d2 } ->
      Printf.sprintf "%s.interchange(%s, %s)" compute d1 d2
  | Split { compute; dim; factor; outer; inner } ->
      Printf.sprintf "%s.split(%s, %d, %s, %s)" compute dim factor outer inner
  | Tile { compute; d1; d2; f1; f2; o1; o2; i1; i2 } ->
      Printf.sprintf "%s.tile(%s, %s, %d, %d, %s, %s, %s, %s)" compute d1 d2 f1
        f2 o1 o2 i1 i2
  | Skew { compute; d1; d2; f1; f2; n1; n2 } ->
      Printf.sprintf "%s.skew(%s, %s, %d, %d, %s, %s)" compute d1 d2 f1 f2 n1
        n2
  | After { compute; anchor; level } ->
      Printf.sprintf "%s.after(%s, %d)" compute anchor level
  | Reverse { compute; dim; new_dim } ->
      Printf.sprintf "%s.reverse(%s, %s)" compute dim new_dim
  | Fuse { c1; c2; level } -> Printf.sprintf "fuse(%s, %s, %d)" c1 c2 level
  | Pipeline { compute; dim; ii } ->
      Printf.sprintf "%s.pipeline(%s, %d)" compute dim ii
  | Unroll { compute; dim; factor } ->
      Printf.sprintf "%s.unroll(%s, %d)" compute dim factor
  | Partition { array; factors; kind } ->
      Printf.sprintf "%s.partition({%s}, %s)" array
        (String.concat ", " (List.map string_of_int factors))
        (kind_name kind)
  | Auto_dse -> "f.auto_DSE()"

(* no break hints: the printout is [to_string]'s bytes in any box *)
let pp ppf d = Format.pp_print_string ppf (to_string d)
