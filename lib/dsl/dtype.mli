(** Data types supported by the POM DSL (Section IV-A): signed and unsigned
    integers of 8/16/32/64 bits and IEEE single/double floats. *)

type t = I8 | I16 | I32 | I64 | U8 | U16 | U32 | U64 | F32 | F64

val bits : t -> int

val is_float : t -> bool

val is_signed : t -> bool

(** C type name used in generated HLS code ([float], [int32_t], ...). *)
val c_name : t -> string

val p_int8 : t
val p_int16 : t
val p_int32 : t
val p_int64 : t
val p_uint8 : t
val p_uint16 : t
val p_uint32 : t
val p_uint64 : t
val p_float32 : t
val p_float64 : t

val equal : t -> t -> bool
