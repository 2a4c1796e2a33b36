let overflow () =
  failwith "iteration or cycle count exceeds the native integer range"

(* overflow iff dividing the wrapped product back does not give [b];
   [-1 * min_int] wraps to [min_int], which divides back exactly *)
let mul a b =
  let p = a * b in
  if a <> 0 && (p / a <> b || (a = -1 && b = min_int)) then overflow ()
  else p

(* overflow iff both operands have one sign and the sum the other *)
let add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then overflow () else s
