open Pom_dsl

type store = { shape : int list; data : float array }

type t = (string, store) Hashtbl.t

(* Deterministic per-element initial value from an FNV-1a-style mix of name
   and flat index: small magnitudes in [0.5, 1.5) keep long reductions
   well-conditioned, the 16-bit mantissa keeps every value exactly
   representable in binary32, and the recipe is reproduced verbatim by the
   generated C testbench (Emit.testbench) so simulator and compiled-C runs
   see identical inputs. *)
let mask = 0xFFFFFFFF

let init_mix name flat =
  let h = ref 2166136261 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 16777619 land mask)
    name;
  h := (!h + (flat * 2654435761)) land mask;
  h := !h lxor (!h lsr 13);
  h := !h * 2654435761 land mask;
  h := !h lxor (!h lsr 16);
  !h land 0xFFFF

let init_value name flat =
  0.5 +. (float_of_int (init_mix name flat) /. 65536.0)

let alloc init ps =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (p : Placeholder.t) ->
      if not (Hashtbl.mem t p.name) then
        Hashtbl.add t p.name
          {
            shape = p.shape;
            data = Array.init (Placeholder.size p) (init p.name);
          })
    ps;
  t

let create ps = alloc init_value ps

let create_filled v ps = alloc (fun _ _ -> v) ps

let store t name =
  match Hashtbl.find_opt t name with
  | Some s -> s
  | None -> invalid_arg ("Memory: unknown array " ^ name)

let flatten shape idx =
  let rec go acc shape idx =
    match (shape, idx) with
    | [], [] -> acc
    | d :: shape, i :: idx ->
        if i < 0 || i >= d then
          invalid_arg
            (Printf.sprintf "Memory: index %d out of bounds [0, %d)" i d);
        go ((acc * d) + i) shape idx
    | _ -> invalid_arg "Memory: rank mismatch"
  in
  go 0 shape idx

let get t name idx =
  let s = store t name in
  s.data.(flatten s.shape idx)

let set t name idx v =
  let s = store t name in
  s.data.(flatten s.shape idx) <- v

let copy t =
  let t' = Hashtbl.create (Hashtbl.length t) in
  Hashtbl.iter
    (fun name s -> Hashtbl.add t' name { s with data = Array.copy s.data })
    t;
  t'

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t []
  |> List.sort String.compare

(* Equal values (the same infinity, or NaN on both sides) do not differ;
   NaN on one side only differs infinitely. *)
let diff v w =
  if Float.equal v w then 0.0
  else
    let d = Float.abs (v -. w) in
    if Float.is_nan d then Float.infinity else d

let max_diff a b =
  if names a <> names b then invalid_arg "Memory.max_diff: different arrays";
  List.fold_left
    (fun acc name ->
      let sa = store a name and sb = store b name in
      if sa.shape <> sb.shape then
        invalid_arg "Memory.max_diff: shape mismatch";
      let m = ref acc in
      Array.iteri (fun i v -> m := Float.max !m (diff v sb.data.(i))) sa.data;
      !m)
    0.0 (names a)

let equal ~eps a b = max_diff a b <= eps

let checksums t =
  List.map
    (fun name ->
      let s = store t name in
      (name, Array.fold_left ( +. ) 0.0 s.data))
    (names t)
