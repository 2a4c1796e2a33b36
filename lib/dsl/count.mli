(** Checked arithmetic on iteration and cycle counts.  The QoR model counts
    in native ints; a count that does not fit raises [Failure] instead of
    wrapping around to a wrong (often negative) number. *)

(** [mul a b] is [a * b], or raises [Failure] when it overflows. *)
val mul : int -> int -> int

(** [add a b] is [a + b], or raises [Failure] when it overflows. *)
val add : int -> int -> int
