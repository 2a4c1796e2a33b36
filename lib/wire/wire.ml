exception Corrupt of { what : string; detail : string }

exception
  Version_mismatch of { what : string; expected : int; got : int }

let () =
  Printexc.register_printer (function
    | Corrupt { what; detail } ->
        Some (Printf.sprintf "Wire.Corrupt(%s: %s)" what detail)
    | Version_mismatch { what; expected; got } ->
        Some
          (Printf.sprintf "Wire.Version_mismatch(%s: expected %d, got %d)"
             what expected got)
    | _ -> None)

let corrupt what fmt =
  Printf.ksprintf (fun detail -> raise (Corrupt { what; detail })) fmt

(* A bounded cursor over an immutable byte buffer.  [limit] caps the
   readable region so nested length prefixes can never reach past the
   bytes that actually arrived. *)
type reader = { data : string; mutable pos : int; limit : int }

let reader data = { data; pos = 0; limit = String.length data }

let read_byte ~what r =
  if r.pos >= r.limit then corrupt what "truncated (wanted 1 byte at %d)" r.pos
  else begin
    let b = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    b
  end

let read_bytes ~what r n =
  if n < 0 then corrupt what "negative length %d" n;
  if r.limit - r.pos < n then
    corrupt what "truncated (wanted %d bytes at %d, have %d)" n r.pos
      (r.limit - r.pos);
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* LEB128 on the raw bit pattern: [lsr] terminates for negative inputs
   too, so the full native-int range round-trips in at most 9 groups. *)
let rec write_uvarint b n =
  if n >= 0 && n < 0x80 then Buffer.add_char b (Char.chr n)
  else begin
    Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
    write_uvarint b (n lsr 7)
  end

let read_uvarint ~what r =
  let rec go acc shift =
    if shift > 63 then corrupt what "varint longer than 9 bytes";
    let b = read_byte ~what r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  go 0 0

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor (- (u land 1))

type 'a t = {
  cid : string;
  enc : Buffer.t -> 'a -> unit;
  dec : reader -> 'a;
}

let encode c = c.enc

let to_string c v =
  let b = Buffer.create 64 in
  c.enc b v;
  Buffer.contents b

let of_string_exn c s =
  let r = reader s in
  let v =
    try c.dec r with
    | Corrupt _ as e -> raise e
    | Invalid_argument m | Failure m ->
        corrupt c.cid "rejected while rebuilding: %s" m
    | Stack_overflow -> corrupt c.cid "nesting too deep"
  in
  if r.pos <> r.limit then
    corrupt c.cid "%d trailing bytes after value" (r.limit - r.pos);
  v

let of_string c s =
  match of_string_exn c s with v -> Ok v | exception e -> Error e

(* --- primitives --- *)

let unit =
  {
    cid = "unit";
    enc = (fun _ () -> ());
    dec = (fun _ -> ());
  }

let bool =
  {
    cid = "bool";
    enc = (fun b v -> Buffer.add_char b (if v then '\001' else '\000'));
    dec =
      (fun r ->
        match read_byte ~what:"bool" r with
        | 0 -> false
        | 1 -> true
        | n -> corrupt "bool" "byte %d is not a bool" n);
  }

let int =
  {
    cid = "int";
    enc = (fun b v -> write_uvarint b (zigzag v));
    dec = (fun r -> unzigzag (read_uvarint ~what:"int" r));
  }

let float =
  {
    cid = "float";
    enc =
      (fun b v -> Buffer.add_int64_le b (Int64.bits_of_float v));
    dec =
      (fun r ->
        let s = read_bytes ~what:"float" r 8 in
        Int64.float_of_bits (String.get_int64_le s 0));
  }

let string =
  {
    cid = "string";
    enc =
      (fun b v ->
        write_uvarint b (String.length v);
        Buffer.add_string b v);
    dec =
      (fun r ->
        let n = read_uvarint ~what:"string" r in
        read_bytes ~what:"string" r n);
  }

(* --- combinators --- *)

let option c =
  {
    cid = c.cid ^ " option";
    enc =
      (fun b -> function
        | None -> Buffer.add_char b '\000'
        | Some v ->
            Buffer.add_char b '\001';
            c.enc b v);
    dec =
      (fun r ->
        match read_byte ~what:(c.cid ^ " option") r with
        | 0 -> None
        | 1 -> Some (c.dec r)
        | n -> corrupt (c.cid ^ " option") "byte %d is not an option tag" n);
  }

let list c =
  let what = c.cid ^ " list" in
  {
    cid = what;
    enc =
      (fun b vs ->
        write_uvarint b (List.length vs);
        List.iter (c.enc b) vs);
    dec =
      (fun r ->
        let n = read_uvarint ~what r in
        (* every element takes >= 1 byte, so a fuzzed length beyond the
           remaining bytes is rejected before any allocation *)
        if n < 0 || n > r.limit - r.pos then
          corrupt what "length %d exceeds %d remaining bytes" n
            (r.limit - r.pos);
        List.init n (fun _ -> c.dec r));
  }

let pair ca cb =
  {
    cid = Printf.sprintf "(%s * %s)" ca.cid cb.cid;
    enc =
      (fun b (x, y) ->
        ca.enc b x;
        cb.enc b y);
    dec =
      (fun r ->
        let x = ca.dec r in
        let y = cb.dec r in
        (x, y));
  }

let triple ca cb cc =
  {
    cid = Printf.sprintf "(%s * %s * %s)" ca.cid cb.cid cc.cid;
    enc =
      (fun b (x, y, z) ->
        ca.enc b x;
        cb.enc b y;
        cc.enc b z);
    dec =
      (fun r ->
        let x = ca.dec r in
        let y = cb.dec r in
        let z = cc.dec r in
        (x, y, z));
  }

let conv cid proj inj c =
  {
    cid;
    enc = (fun b v -> c.enc b (proj v));
    dec = (fun r -> inj (c.dec r));
  }

(* --- records --- *)

type ('r, 'a) field = { fcodec : 'a t; fget : 'r -> 'a }

let field fcodec fget = { fcodec; fget }

let record3 cid f1 f2 f3 make =
  {
    cid;
    enc =
      (fun b v ->
        f1.fcodec.enc b (f1.fget v);
        f2.fcodec.enc b (f2.fget v);
        f3.fcodec.enc b (f3.fget v));
    dec =
      (fun r ->
        let a = f1.fcodec.dec r in
        let b = f2.fcodec.dec r in
        let c = f3.fcodec.dec r in
        make a b c);
  }

let record4 cid f1 f2 f3 f4 make =
  {
    cid;
    enc =
      (fun b v ->
        f1.fcodec.enc b (f1.fget v);
        f2.fcodec.enc b (f2.fget v);
        f3.fcodec.enc b (f3.fget v);
        f4.fcodec.enc b (f4.fget v));
    dec =
      (fun r ->
        let a = f1.fcodec.dec r in
        let b = f2.fcodec.dec r in
        let c = f3.fcodec.dec r in
        let d = f4.fcodec.dec r in
        make a b c d);
  }

let record5 cid f1 f2 f3 f4 f5 make =
  {
    cid;
    enc =
      (fun b v ->
        f1.fcodec.enc b (f1.fget v);
        f2.fcodec.enc b (f2.fget v);
        f3.fcodec.enc b (f3.fget v);
        f4.fcodec.enc b (f4.fget v);
        f5.fcodec.enc b (f5.fget v));
    dec =
      (fun r ->
        let a = f1.fcodec.dec r in
        let b = f2.fcodec.dec r in
        let c = f3.fcodec.dec r in
        let d = f4.fcodec.dec r in
        let e = f5.fcodec.dec r in
        make a b c d e);
  }

let record6 cid f1 f2 f3 f4 f5 f6 make =
  {
    cid;
    enc =
      (fun b v ->
        f1.fcodec.enc b (f1.fget v);
        f2.fcodec.enc b (f2.fget v);
        f3.fcodec.enc b (f3.fget v);
        f4.fcodec.enc b (f4.fget v);
        f5.fcodec.enc b (f5.fget v);
        f6.fcodec.enc b (f6.fget v));
    dec =
      (fun r ->
        let a = f1.fcodec.dec r in
        let b = f2.fcodec.dec r in
        let c = f3.fcodec.dec r in
        let d = f4.fcodec.dec r in
        let e = f5.fcodec.dec r in
        let f = f6.fcodec.dec r in
        make a b c d e f);
  }

let record8 cid f1 f2 f3 f4 f5 f6 f7 f8 make =
  {
    cid;
    enc =
      (fun b v ->
        f1.fcodec.enc b (f1.fget v);
        f2.fcodec.enc b (f2.fget v);
        f3.fcodec.enc b (f3.fget v);
        f4.fcodec.enc b (f4.fget v);
        f5.fcodec.enc b (f5.fget v);
        f6.fcodec.enc b (f6.fget v);
        f7.fcodec.enc b (f7.fget v);
        f8.fcodec.enc b (f8.fget v));
    dec =
      (fun r ->
        let a = f1.fcodec.dec r in
        let b = f2.fcodec.dec r in
        let c = f3.fcodec.dec r in
        let d = f4.fcodec.dec r in
        let e = f5.fcodec.dec r in
        let f = f6.fcodec.dec r in
        let g = f7.fcodec.dec r in
        let h = f8.fcodec.dec r in
        make a b c d e f g h);
  }

let record9 cid f1 f2 f3 f4 f5 f6 f7 f8 f9 make =
  {
    cid;
    enc =
      (fun b v ->
        f1.fcodec.enc b (f1.fget v);
        f2.fcodec.enc b (f2.fget v);
        f3.fcodec.enc b (f3.fget v);
        f4.fcodec.enc b (f4.fget v);
        f5.fcodec.enc b (f5.fget v);
        f6.fcodec.enc b (f6.fget v);
        f7.fcodec.enc b (f7.fget v);
        f8.fcodec.enc b (f8.fget v);
        f9.fcodec.enc b (f9.fget v));
    dec =
      (fun r ->
        let a = f1.fcodec.dec r in
        let b = f2.fcodec.dec r in
        let c = f3.fcodec.dec r in
        let d = f4.fcodec.dec r in
        let e = f5.fcodec.dec r in
        let f = f6.fcodec.dec r in
        let g = f7.fcodec.dec r in
        let h = f8.fcodec.dec r in
        let i = f9.fcodec.dec r in
        make a b c d e f g h i);
  }

(* --- variants --- *)

type 'a case =
  | Case : {
      tag : int;
      codec : 'b t;
      inj : 'b -> 'a;
      proj : 'a -> 'b option;
    }
      -> 'a case

let case tag codec inj proj =
  if tag < 0 then invalid_arg "Wire.case: negative tag";
  Case { tag; codec; inj; proj }

let union cid cases =
  let tags = List.map (fun (Case c) -> c.tag) cases in
  if List.length (List.sort_uniq compare tags) <> List.length tags then
    invalid_arg (Printf.sprintf "Wire.union %s: duplicate tags" cid);
  let find_value v =
    let rec go = function
      | [] ->
          invalid_arg
            (Printf.sprintf "Wire.union %s: value matches no case" cid)
      | Case c :: rest -> (
          match c.proj v with
          | Some payload -> (c.tag, fun b -> c.codec.enc b payload)
          | None -> go rest)
    in
    go cases
  in
  {
    cid;
    enc =
      (fun b v ->
        let tag, put = find_value v in
        write_uvarint b tag;
        put b);
    dec =
      (fun r ->
        let tag = read_uvarint ~what:cid r in
        match
          List.find_opt (fun (Case c) -> c.tag = tag) cases
        with
        | Some (Case c) -> c.inj (c.codec.dec r)
        | None -> corrupt cid "unknown constructor tag %d" tag);
  }

let enum cid values =
  union cid
    (List.mapi
       (fun i v ->
         case i unit (fun () -> v) (fun x -> if x = v then Some () else None))
       values)

let fix cid f =
  let rec self =
    {
      cid;
      enc = (fun b v -> (Lazy.force body).enc b v);
      dec = (fun r -> (Lazy.force body).dec r);
    }
  and body = lazy (f self) in
  self
