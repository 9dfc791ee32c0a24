type counter = { cname : string; chelp : string; cv : int Atomic.t }

type histogram = {
  hname : string;
  hhelp : string;
  bounds : float array;
  buckets : int Atomic.t array;  (** length = bounds + 1 (overflow) *)
  hcount : int Atomic.t;
  hsum : float Atomic.t;
}

type gauge = { gname : string; ghelp : string; gv : float Atomic.t }

type t = {
  lock : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hdrs : (string, Hdr.t) Hashtbl.t;
  mutable corder : string list;  (** reversed registration order *)
  mutable horder : string list;
  mutable gorder : string list;
  mutable dorder : string list;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 64;
    hists = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hdrs = Hashtbl.create 16;
    corder = [];
    horder = [];
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

let duration_buckets =
  (* 1 us .. ~16 s, factor 4 *)
  [| 1e-6; 4e-6; 1.6e-5; 6.4e-5; 2.56e-4; 1.024e-3; 4.096e-3; 1.6384e-2;
     6.5536e-2; 0.262144; 1.048576; 4.194304; 16.777216 |]

let linear_buckets ~lo ~step ~n = Array.init n (fun i -> lo +. (step *. float_of_int i))

let histogram t ?(help = "") ?(buckets = duration_buckets) name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
          let h =
            {
              hname = name;
              hhelp = help;
              bounds = Array.copy buckets;
              buckets =
                Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
              hcount = Atomic.make 0;
              hsum = Atomic.make 0.0;
            }
          in
          Hashtbl.add t.hists name h;
          t.horder <- name :: t.horder;
          h)

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
let histogram_name h = h.hname
let histogram_help h = h.hhelp

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let observe_n h x k =
  if k > 0 then begin
    let n = Array.length h.bounds in
    let rec index i = if i >= n || x <= h.bounds.(i) then i else index (i + 1) in
    ignore (Atomic.fetch_and_add h.buckets.(index 0) k);
    ignore (Atomic.fetch_and_add h.hcount k);
    atomic_add_float h.hsum (x *. float_of_int k)
  end

let observe h x = observe_n h x 1

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;
  count : int;
  sum : float;
}

type snapshot = {
  counters : (string * int) list;
  hists : (string * hist_snapshot) list;
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
        hists =
          List.rev_map
            (fun name ->
              let h = Hashtbl.find t.hists name in
              ( name,
                {
                  bounds = Array.copy h.bounds;
                  counts = Array.map Atomic.get h.buckets;
                  count = Atomic.get h.hcount;
                  sum = Atomic.get h.hsum;
                } ))
            t.horder;
        hdrs =
          List.rev_map
            (fun name -> (name, Hdr.snapshot (Hashtbl.find t.hdrs name)))
            t.dorder;
      })

let merge snaps =
  let corder = ref [] and cvals = Hashtbl.create 64 in
  let horder = ref [] and hvals = Hashtbl.create 16 in
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
        (fun (name, h) ->
          match Hashtbl.find_opt hvals name with
          | Some (prev : hist_snapshot) when prev.bounds = h.bounds ->
              Hashtbl.replace hvals name
                {
                  prev with
                  counts = Array.map2 ( + ) prev.counts h.counts;
                  count = prev.count + h.count;
                  sum = prev.sum +. h.sum;
                }
          | Some _ -> ()  (* incompatible bounds: first wins *)
          | None ->
              Hashtbl.add hvals name h;
              horder := name :: !horder)
        s.hists;
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
    hists = List.rev_map (fun n -> (n, Hashtbl.find hvals n)) !horder;
    gauges = List.rev_map (fun n -> (n, Hashtbl.find gvals n)) !gorder;
    hdrs = List.rev_map (fun n -> (n, Hashtbl.find dvals n)) !dorder;
  }

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cv 0) t.counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.gv 0.0) t.gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.hcount 0;
          Atomic.set h.hsum 0.0)
        t.hists;
      Hashtbl.iter (fun _ h -> Hdr.reset h) t.hdrs)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_bound b =
  if Float.is_integer b && Float.abs b < 1e9 then Printf.sprintf "%.0f" b
  else if b >= 1.0 then Printf.sprintf "%.3g" b
  else Printf.sprintf "%.3g" b

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
    (fun (name, h) ->
      let mean = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count in
      Buffer.add_string buf
        (Printf.sprintf "-- histogram %s: count=%d sum=%.6g mean=%.6g\n" name
           h.count h.sum mean);
      Array.iteri
        (fun i c ->
          if c > 0 then
            let label =
              if i < Array.length h.bounds then
                Printf.sprintf "<= %s" (pp_bound h.bounds.(i))
              else "overflow"
            in
            Buffer.add_string buf (Printf.sprintf "     %-12s %12d\n" label c))
        h.counts)
    s.hists;
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
      ( "histograms",
        Jsonw.Obj
          (List.map
             (fun (n, h) ->
               ( n,
                 Jsonw.Obj
                   [
                     ("count", Jsonw.Int h.count);
                     ("sum", Jsonw.Float h.sum);
                     ( "bounds",
                       Jsonw.List
                         (Array.to_list
                            (Array.map (fun b -> Jsonw.Float b) h.bounds)) );
                     ( "counts",
                       Jsonw.List
                         (Array.to_list
                            (Array.map (fun c -> Jsonw.Int c) h.counts)) );
                   ] ))
             s.hists) );
      ( "hdr",
        Jsonw.Obj (List.map (fun (n, d) -> (n, Hdr.snap_to_json d)) s.hdrs) );
    ]
