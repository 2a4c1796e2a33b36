(* Spans recorded by the benchmark around its own calls into each layer.
   They stay in memory and are written once, when the run ends: a Chrome
   trace-event file (open it in https://ui.perfetto.dev) and a layer file
   holding each span name's self time. *)

type span = {
  id : int;
  parent : int option;
  req : int;  (** request id: every span of one request shares it *)
  tid : int;  (** client thread (serve) or 0 *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = { lock : Mutex.t; mutable spans : span list; mutable next : int }

let create () = { lock = Mutex.create (); spans = []; next = 0 }

let add t ?parent ?(tid = 0) ~req name t0 t1 =
  Mutex.protect t.lock @@ fun () ->
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; req; tid; name; t0; t1 } :: t.spans;
  id

let spans t = List.rev t.spans

(* Length of the union of [intervals], clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part its children cover. *)
let self_times t =
  let all = spans t in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Option.iter (fun p -> Hashtbl.add children p (s.t0, s.t1)) s.parent)
    all;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    all

let write_trace t file =
  let all = spans t in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) Float.infinity all in
  let us x = Float.round ((x -. origin) *. 1e6) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.tid));
        ("ts", Json.Num (us s.t0));
        ("dur", Json.Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("args", Json.Obj [ ("req", Json.Num (float_of_int s.req)) ]);
      ]
  in
  Json.to_file file
    (Json.Obj
       [ ("traceEvents", Json.Arr (List.map event all)); ("displayTimeUnit", Json.Str "ms") ])

(* Per span name: total self time, span count and self time per request. *)
let layers t =
  let requests =
    List.sort_uniq compare (List.map (fun s -> s.req) (spans t)) |> List.length
  in
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let total, n = Option.value (Hashtbl.find_opt acc s.name) ~default:(0.0, 0) in
      Hashtbl.replace acc s.name (total +. self, n + 1))
    (self_times t);
  let rows = Hashtbl.fold (fun name (total, n) l -> (name, total, n) :: l) acc [] in
  ( requests,
    List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) rows )
