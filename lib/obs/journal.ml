(* One writer: [emit] stamps, serializes and writes each event under
   [wlock], so file order is [seq] order and no line is ever torn or
   interleaved. Measured traffic is ~1.7 k events/s for a reported
   search and ~3 k for a journaled daemon under two clients, where one
   lock and one flush per event cost nothing measurable (E37). *)
type t = {
  jpath : string;
  oc : out_channel;
  wlock : Mutex.t;  (** guards [oc], [seq] and [closed] *)
  mutable seq : int;
  ids : int Atomic.t;
  epoch : float;
  mutable closed : bool;
  dropped : int Atomic.t;  (** events lost to failed writes *)
}

(* --- ambient event context ------------------------------------------- *)

(* Fields stamped onto every event emitted by the current thread — the
   request id, chiefly, so a server request's events are filterable
   without threading an argument through every instrumented layer.
   Keyed by (domain, thread): threads within a domain share its DLS,
   so DLS alone would let concurrent server handler threads clobber
   each other's ids. The table is an immutable assoc list swapped by
   CAS — readers (every [emit]) are lock-free; writers (request entry
   and exit) retry on contention. Domain and thread ids are never
   reused within a process, so a stale entry can only leak, never
   mis-tag; [with_context] and the search-worker wrappers clean up
   regardless. *)

let ctx_table : ((int * int) * (string * Jsonw.t) list) list Atomic.t =
  Atomic.make []

let ctx_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let rec set_context fields =
  let cur = Atomic.get ctx_table in
  let key = ctx_key () in
  let rest = List.remove_assoc key cur in
  let next = if fields = [] then rest else (key, fields) :: rest in
  if not (Atomic.compare_and_set ctx_table cur next) then set_context fields

let context () =
  match List.assoc_opt (ctx_key ()) (Atomic.get ctx_table) with
  | Some fields -> fields
  | None -> []

let with_context fields f =
  let saved = context () in
  set_context fields;
  Fun.protect ~finally:(fun () -> set_context saved) f

let create ~path () =
  {
    jpath = path;
    oc = open_out path;
    wlock = Mutex.create ();
    seq = 0;
    ids = Atomic.make 0;
    epoch = Unix.gettimeofday ();
    closed = false;
    dropped = Atomic.make 0;
  }

let path t = t.jpath
let fresh_id t = Atomic.fetch_and_add t.ids 1
let dropped t = Atomic.get t.dropped

(* Process-wide loss accounting in the default metrics registry, so a
   silent drop is visible in any metrics exposition (the service
   [metrics] op, report.json status) even after the journal that
   suffered it is closed. Lazy: registering at module init would create
   the default registry before anyone asked for it. *)
let c_dropped_events =
  lazy
    (Metrics.counter (Metrics.default ())
       ~help:"journal events dropped on write failure" "journal.dropped_events")

(* A failed write (disk full, injected fault) drops this one event and
   degrades the run instead of crashing the search: forensics are
   best-effort, the pipeline is not. The fault point trips before any
   byte of the line reaches the channel, so it never tears a line. *)
let emit t ?(cand = -1) ~typ fields =
  (* ambient context fields ride along; an explicit field wins *)
  let ctx =
    match context () with
    | [] -> []
    | ctx -> List.filter (fun (k, _) -> not (List.mem_assoc k fields)) ctx
  in
  let tail =
    ("dom", Jsonw.Int (Domain.self () :> int))
    :: ("ev", Jsonw.Str typ)
    :: (if cand >= 0 then [ ("cand", Jsonw.Int cand) ] else [])
    @ fields @ ctx
  in
  Mutex.protect t.wlock (fun () ->
      if not t.closed then begin
        let seq = t.seq in
        t.seq <- seq + 1;
        let line =
          Jsonw.to_string
            (Jsonw.Obj
               (("seq", Jsonw.Int seq)
               :: ("ts", Jsonw.Float (Unix.gettimeofday () -. t.epoch))
               :: tail))
        in
        try
          Fault.trip "journal.write";
          output_string t.oc line;
          output_char t.oc '\n';
          flush t.oc
        with e ->
          Atomic.incr t.dropped;
          Metrics.bump (Lazy.force c_dropped_events);
          Budget.degrade "journal.write";
          Log.warn (fun m ->
              m "journal: dropped event %d on write failure: %s" seq
                (Printexc.to_string e))
      end)

let close t =
  Mutex.protect t.wlock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        close_out_noerr t.oc
      end)

(* ------------------------------------------------------------------ *)
(* Global journal                                                      *)
(* ------------------------------------------------------------------ *)

let current : t option Atomic.t = Atomic.make None

let disable () =
  match Atomic.exchange current None with
  | Some t -> close t
  | None -> ()

let enable path =
  disable ();
  let t = create ~path () in
  Atomic.set current (Some t);
  t

let active () = Atomic.get current

let event ?cand typ fields =
  match Atomic.get current with
  | None -> ()
  | Some t -> emit t ?cand ~typ fields

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let fold_file path ~init ~f =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec loop lineno acc =
            match input_line ic with
            | exception End_of_file -> Ok acc
            | "" -> loop (lineno + 1) acc
            | line -> (
                match Jsonw.of_string line with
                | Ok v -> loop (lineno + 1) (f acc v)
                | Error msg ->
                    Error (Printf.sprintf "line %d: %s" lineno msg))
          in
          loop 1 init)

let read_file path =
  Result.map List.rev
    (fold_file path ~init:[] ~f:(fun acc v -> v :: acc))

let int_field key j =
  match Jsonw.member key j with Some (Jsonw.Int i) -> i | _ -> -1

let seq_of j = int_field "seq" j
let cand_of j = int_field "cand" j

let typ_of j =
  match Jsonw.member "ev" j with Some (Jsonw.Str s) -> s | _ -> ""

let rid_of j =
  match Jsonw.member "rid" j with Some (Jsonw.Str s) -> s | _ -> ""
