type t = { name : string; shape : int list; dtype : Dtype.t }

let make name shape dtype =
  if shape = [] then invalid_arg "Placeholder.make: empty shape";
  List.iter
    (fun d ->
      if d <= 0 then invalid_arg "Placeholder.make: non-positive extent")
    shape;
  { name; shape; dtype }

let rank p = List.length p.shape

let size p = List.fold_left ( * ) 1 p.shape

let bits p = size p * Dtype.bits p.dtype
