type t = {
  code : string;
  pass : string option;
  context : string list;
  message : string;
}

exception Error of t

let make ~code ?pass ?(context = []) message = { code; pass; context; message }

let of_exn ~code ?pass = function
  | Budget.Budget_exceeded { site; reason } ->
      make ~code:"POM301" ?pass ~context:[ site ]
        (Printf.sprintf "budget exceeded: %s" reason)
  | Error e -> { e with pass = (match e.pass with Some _ as p -> p | None -> pass) }
  | Fault.Injected site ->
      make ~code ?pass ~context:[ site ] "injected failure"
  | Pom_wire.Wire.Corrupt { what; detail } ->
      make ~code:"POM308" ?pass ~context:[ what ]
        (Printf.sprintf "corrupt wire data: %s" detail)
  | Pom_wire.Wire.Version_mismatch { what; expected; got } ->
      make ~code:"POM309" ?pass ~context:[ what ]
        (Printf.sprintf "wire format version mismatch: expected %d, got %d"
           expected got)
  | Failure m -> make ~code ?pass m
  | exn -> make ~code ?pass (Printexc.to_string exn)

let pp ppf e =
  Format.fprintf ppf "%s error [%s]: %s" e.code
    (String.concat "/"
       ((match e.pass with Some p -> [ p ] | None -> []) @ e.context))
    e.message

let to_string e = Format.asprintf "%a" pp e
