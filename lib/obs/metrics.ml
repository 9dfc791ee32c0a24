type counter = { cname : string; chelp : string; cv : int Atomic.t }

type gauge = { gname : string; ghelp : string; gv : float Atomic.t }

type t = {
  lock : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hdrs : (string, Hdr.t) Hashtbl.t;
  mutable corder : string list;  (** reversed registration order *)
  mutable gorder : string list;
  mutable dorder : string list;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    hdrs = Hashtbl.create 16;
    corder = [];
    gorder = [];
    dorder = [];
  }

let default_reg = lazy (create ())
let default () = Lazy.force default_reg

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counter t ?(help = "") name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
          let c = { cname = name; chelp = help; cv = Atomic.make 0 } in
          Hashtbl.add t.counters name c;
          t.corder <- name :: t.corder;
          c)

let hdr t ?(help = "") ?error ?lo ?hi name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hdrs name with
      | Some h -> h
      | None ->
          let h = Hdr.create ?error ?lo ?hi ~help name in
          Hashtbl.add t.hdrs name h;
          t.dorder <- name :: t.dorder;
          h)

let gauge t ?(help = "") name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some g -> g
      | None ->
          let g = { gname = name; ghelp = help; gv = Atomic.make 0.0 } in
          Hashtbl.add t.gauges name g;
          t.gorder <- name :: t.gorder;
          g)

let set_gauge g x = Atomic.set g.gv x

let rec max_gauge g x =
  let old = Atomic.get g.gv in
  if x > old && not (Atomic.compare_and_set g.gv old x) then max_gauge g x

let gauge_value g = Atomic.get g.gv
let gauge_name g = g.gname
let gauge_help g = g.ghelp

let bump c = Atomic.incr c.cv
let add c n = ignore (Atomic.fetch_and_add c.cv n)
let value c = Atomic.get c.cv
let counter_name c = c.cname
let counter_help c = c.chelp

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  hdrs : (string * Hdr.snapshot) list;
}

let snapshot t =
  with_lock t (fun () ->
      {
        counters =
          List.rev_map
            (fun name ->
              (name, Atomic.get (Hashtbl.find t.counters name).cv))
            t.corder;
        gauges =
          List.rev_map
            (fun name -> (name, Atomic.get (Hashtbl.find t.gauges name).gv))
            t.gorder;
        hdrs =
          List.rev_map
            (fun name -> (name, Hdr.snapshot (Hashtbl.find t.hdrs name)))
            t.dorder;
      })

let merge snaps =
  let corder = ref [] and cvals = Hashtbl.create 64 in
  let gorder = ref [] and gvals = Hashtbl.create 16 in
  let dorder = ref [] and dvals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      (* gauges merge by max: the use case is peaks (smem high-water). *)
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt gvals name with
          | Some prev -> Hashtbl.replace gvals name (Float.max prev v)
          | None ->
              Hashtbl.add gvals name v;
              gorder := name :: !gorder)
        s.gauges;
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt cvals name with
          | Some prev -> Hashtbl.replace cvals name (prev + v)
          | None ->
              Hashtbl.add cvals name v;
              corder := name :: !corder)
        s.counters;
      List.iter
        (fun (name, (d : Hdr.snapshot)) ->
          match Hashtbl.find_opt dvals name with
          | Some prev -> (
              match Hdr.merge prev d with
              | merged -> Hashtbl.replace dvals name merged
              | exception Invalid_argument _ -> ()  (* first wins *))
          | None ->
              Hashtbl.add dvals name d;
              dorder := name :: !dorder)
        s.hdrs)
    snaps;
  {
    counters = List.rev_map (fun n -> (n, Hashtbl.find cvals n)) !corder;
    gauges = List.rev_map (fun n -> (n, Hashtbl.find gvals n)) !gorder;
    hdrs = List.rev_map (fun n -> (n, Hashtbl.find dvals n)) !dorder;
  }

let absorb t s =
  List.iter (fun (name, v) -> add (counter t name) v) s.counters;
  List.iter (fun (name, v) -> max_gauge (gauge t name) v) s.gauges

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cv 0) t.counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.gv 0.0) t.gauges;
      Hashtbl.iter (fun _ h -> Hdr.reset h) t.hdrs)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_table s =
  let buf = Buffer.create 512 in
  if s.counters <> [] then begin
    Buffer.add_string buf "-- counters\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "%-44s %12d\n" name v))
      s.counters
  end;
  if s.gauges <> [] then begin
    Buffer.add_string buf "-- gauges\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "%-44s %12.6g\n" name v))
      s.gauges
  end;
  List.iter
    (fun (name, (d : Hdr.snapshot)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "-- hdr %s: count=%d mean=%.6gus p50=%.6gus p99=%.6gus max=%.6gus\n"
           name d.Hdr.count
           (1e6 *. Hdr.snap_mean d)
           (1e6 *. Hdr.snap_quantile d 0.5)
           (1e6 *. Hdr.snap_quantile d 0.99)
           (if d.Hdr.count = 0 then 0.0 else 1e6 *. d.Hdr.vmax)))
    s.hdrs;
  Buffer.contents buf

let to_json s =
  Jsonw.Obj
    [
      ( "counters",
        Jsonw.Obj (List.map (fun (n, v) -> (n, Jsonw.Int v)) s.counters) );
      ( "gauges",
        Jsonw.Obj (List.map (fun (n, v) -> (n, Jsonw.Float v)) s.gauges) );
      ( "hdr",
        Jsonw.Obj (List.map (fun (n, d) -> (n, Hdr.snap_to_json d)) s.hdrs) );
    ]
