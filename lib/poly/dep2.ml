(* A schedule-time coordinate: a static scalar or an affine coordinate over
   (renamed) iteration dimensions. *)
type time_item = C of int | V of Linexpr.t

(* pad the shorter vector with trailing zero constants so positions align *)
let align a b =
  let la = List.length a and lb = List.length b in
  let pad v n = v @ List.init n (fun _ -> C 0) in
  if la < lb then (pad a (lb - la), b)
  else if lb < la then (a, pad b (la - lb))
  else (a, b)

(* Branch sets of the lexicographic order first ≺ second between the two
   aligned time vectors: one basic-set constraint list per viable branch
   position from [start] on, each with the equalities of every position
   before it.  [first]/[second] select which side is required earlier. *)
let order_branches ?(start = 0) first_vec second_vec =
  let rec go prefix_eq pos = function
    | [], [] -> []
    | a :: rest_a, b :: rest_b ->
        let strict_here =
          match (a, b) with
          | C x, C y -> if x < y then Some [] else None
          | V x, V y -> Some [ Constr.lt x y ]
          | C x, V y -> Some [ Constr.gt y (Linexpr.const x) ]
          | V x, C y -> Some [ Constr.lt x (Linexpr.const y) ]
        in
        let this_branch =
          match strict_here with
          | Some cs when pos >= start -> [ prefix_eq @ cs ]
          | _ -> []
        in
        let eq_here =
          match (a, b) with
          | C x, C y -> if x = y then Some [] else None
          | V x, V y -> Some [ Constr.eq x y ]
          | C x, V y -> Some [ Constr.eq (Linexpr.const x) y ]
          | V x, C y -> Some [ Constr.eq x (Linexpr.const y) ]
        in
        let rest =
          match eq_here with
          | Some cs -> go (prefix_eq @ cs) (pos + 1) (rest_a, rest_b)
          | None -> []
        in
        this_branch @ rest
    | _ -> assert false
  in
  go [] 0 (first_vec, second_vec)
