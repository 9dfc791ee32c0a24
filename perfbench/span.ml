(* In-memory spans around the benchmark's calls into each layer.

   A span records its name, layer, start, end, parent span and op id.
   Spans nest per domain (the serve clients run in their own domains),
   are kept in memory while the benchmark runs and are written once at
   the end. When recording is off, [with_] costs one atomic load. *)

type t = {
  id : int;
  parent : int;  (** 0 for an op's root span *)
  op : int;
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
}

let on = Atomic.make false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let spans : t list ref = ref []
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

let record s =
  Mutex.lock lock;
  spans := s :: !spans;
  Mutex.unlock lock

let push ~root ~layer ~name f =
  let saved = Domain.DLS.get stack in
  let st = if root then [] else saved in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent, op = match st with (p, o) :: _ -> (p, o) | [] -> (0, id) in
  Domain.DLS.set stack ((id, op) :: st);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set stack saved;
      record { id; parent; op; layer; name; t0; t1 })
    f

(* A span inside the current op. *)
let with_ layer name f =
  if not (enabled ()) then f () else push ~root:false ~layer ~name f

(* The root span of one op: its id becomes the op id of every span
   opened beneath it. *)
let op layer name f =
  if not (enabled ()) then f () else push ~root:true ~layer ~name f

let all () =
  Mutex.lock lock;
  let l = List.rev !spans in
  Mutex.unlock lock;
  l

let dur s = s.t1 -. s.t0

(* Total duration of each span's direct children, by parent id. *)
let child_time l =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    l;
  child

(* Self time per layer: each span's duration minus its children's. *)
let self_by_layer () =
  let l = all () in
  let child = child_time l in
  let by = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace by s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by s.layer)))
    l;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by []

(* Share of op wall time covered by the layer spans directly under the
   op roots, over the ops that have any; [None] when no op does. *)
let coverage () =
  let l = all () in
  let child = child_time l in
  let covered, total =
    List.fold_left
      (fun (c, t) s ->
        match Hashtbl.find_opt child s.id with
        | Some d when s.parent = 0 -> (c +. d, t +. dur s)
        | _ -> (c, t))
      (0.0, 0.0) l
  in
  if total > 0.0 then Some (covered /. total) else None

let total ~layer ~name =
  Stat.sum
    (List.filter_map
       (fun s -> if s.layer = layer && s.name = name then Some (dur s) else None)
       (all ()))

(* One JSON list of spans, times in microseconds from the first span. *)
let write path =
  let l = all () in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity l in
  let us t = Obs.Jsonw.Int (int_of_float (1e6 *. (t -. origin))) in
  Obs.Jsonw.to_file path
    (Obs.Jsonw.List
       (List.map
          (fun s ->
            Obs.Jsonw.Obj
              [
                ("id", Obs.Jsonw.Int s.id);
                ("parent", Obs.Jsonw.Int s.parent);
                ("op", Obs.Jsonw.Int s.op);
                ("layer", Obs.Jsonw.Str s.layer);
                ("name", Obs.Jsonw.Str s.name);
                ("start_us", us s.t0);
                ("end_us", us s.t1);
              ])
          l))
