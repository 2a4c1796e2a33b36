(** Multi-dimensional array placeholders, as declared by
    [placeholder A("A", {32, 32}, p_float32)] (Fig. 4). *)

type t = { name : string; shape : int list; dtype : Dtype.t }

val make : string -> int list -> Dtype.t -> t

val rank : t -> int

(** Total number of elements. *)
val size : t -> int

(** On-chip storage footprint in bits. *)
val bits : t -> int
