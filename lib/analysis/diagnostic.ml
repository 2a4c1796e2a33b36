type severity = Error | Warning | Hint

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

type t = {
  code : string;
  severity : severity;
  loc : string list;
  message : string;
  note : string option;
}

let v ~code ~severity ~loc ?note message =
  { code; severity; loc; message; note }

let error ~code ~loc ?note message = v ~code ~severity:Error ~loc ?note message

let warning ~code ~loc ?note message =
  v ~code ~severity:Warning ~loc ?note message

let hint ~code ~loc ?note message = v ~code ~severity:Hint ~loc ?note message

let compare a b =
  match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
      match String.compare a.code b.code with
      | 0 -> Stdlib.compare (a.loc, a.message) (b.loc, b.message)
      | c -> c)
  | c -> c

let sort ds = List.sort compare ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let promote_warnings ds =
  List.map
    (fun d -> if d.severity = Warning then { d with severity = Error } else d)
    ds

let summary ds =
  let count sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
  let part n singular =
    if n = 0 then None
    else Some (Printf.sprintf "%d %s%s" n singular (if n = 1 then "" else "s"))
  in
  match
    List.filter_map
      (fun (sev, name) -> part (count sev) name)
      [ (Error, "error"); (Warning, "warning"); (Hint, "hint") ]
  with
  | [] -> "clean"
  | parts -> String.concat ", " parts

let pp ppf d =
  Format.fprintf ppf "%s %s [%s]: %s" d.code (severity_name d.severity)
    (String.concat "/" d.loc)
    d.message;
  match d.note with
  | Some n -> Format.fprintf ppf "@,  fix: %s" n
  | None -> ()

let pp_list ppf ds =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp)
    ds
