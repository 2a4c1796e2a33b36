type t = I8 | I16 | I32 | I64 | U8 | U16 | U32 | U64 | F32 | F64

let bits = function
  | I8 | U8 -> 8
  | I16 | U16 -> 16
  | I32 | U32 | F32 -> 32
  | I64 | U64 | F64 -> 64

let is_float = function F32 | F64 -> true | _ -> false

let is_signed = function
  | I8 | I16 | I32 | I64 | F32 | F64 -> true
  | U8 | U16 | U32 | U64 -> false

let c_name = function
  | I8 -> "int8_t"
  | I16 -> "int16_t"
  | I32 -> "int32_t"
  | I64 -> "int64_t"
  | U8 -> "uint8_t"
  | U16 -> "uint16_t"
  | U32 -> "uint32_t"
  | U64 -> "uint64_t"
  | F32 -> "float"
  | F64 -> "double"

let p_int8 = I8
let p_int16 = I16
let p_int32 = I32
let p_int64 = I64
let p_uint8 = U8
let p_uint16 = U16
let p_uint32 = U32
let p_uint64 = U64
let p_float32 = F32
let p_float64 = F64

let equal (a : t) b = a = b
