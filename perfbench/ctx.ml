(* State of one benchmark run: its arguments, temporary directory, op and
   failure counts, and the metrics it has recorded. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tmp : string;  (** fresh per run, relative to the checkout, removed at exit *)
  rng : Random.State.t;
  attempted : int Atomic.t;
  failed : int Atomic.t;
  lock : Mutex.t;
  mutable metrics : (string * (float * string * string)) list;
      (** name -> value, unit, note (sample count, percentile) *)
}

let device = Gpusim.Device.a100
let now = Unix.gettimeofday

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let counter = ref 0

(* A fresh directory under the run's temporary directory. *)
let fresh_dir t name =
  incr counter;
  let d = Filename.concat t.tmp (Printf.sprintf "%s%d" name !counter) in
  mkdir_p d;
  d

let create ~workload ~seed ~seconds ~trace ~tmp =
  rm_rf tmp;
  mkdir_p tmp;
  {
    workload;
    seed;
    seconds;
    trace;
    tmp;
    rng = Random.State.make [| seed |];
    attempted = Atomic.make 0;
    failed = Atomic.make 0;
    lock = Mutex.create ();
    metrics = [];
  }

let attempt t = Atomic.incr t.attempted

let fail t fmt =
  Printf.ksprintf
    (fun m ->
      Atomic.incr t.failed;
      Printf.eprintf "FAIL %s: %s\n%!" t.workload m)
    fmt

let record t ?(note = "") name unit value =
  Mutex.lock t.lock;
  t.metrics <- (name, (value, unit, note)) :: List.remove_assoc name t.metrics;
  Mutex.unlock t.lock

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t.rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The work of a run is fixed by its seed and [--seconds]: a workload
   repeats its op classes in whole rounds, [per_10s] rounds for every
   10 s of [--seconds]. A faster build finishes the same rounds sooner;
   it never does more work. *)
let rounds t ~per_10s =
  max 1 (int_of_float (Float.round (t.seconds /. 10.0 *. per_10s)))

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Set-up runs [setup_reps] times and reports its median, so one slow
   start does not move [setup_s]; every set-up but the last is torn
   down. *)
let setup_reps = 5

let setup t ~teardown f =
  let times = ref [] in
  let rec go i =
    let v, dt = time f in
    times := dt :: !times;
    if i < setup_reps then begin
      teardown v;
      go (i + 1)
    end
    else v
  in
  let v = go 1 in
  record t ~note:(Printf.sprintf "median of %d" setup_reps) "setup_s" "s"
    (Stat.median !times);
  v

(* The search menu the serve tests use: one grid and one loop factor and
   at most three block ops, so every Fig. 7 search runs to completion.
   No wall budget. *)
let menu ~workers =
  {
    Search.Config.default with
    Search.Config.grid_candidates = [ [| 2 |] ];
    forloop_candidates = [ [| 2 |] ];
    max_block_ops = 3;
    num_workers = workers;
    time_budget_s = 0.0;
  }

let search_config ~workers spec = Search.Config.for_spec ~base:(menu ~workers) spec

(* Median op time of each op class. *)
let class_medians samples =
  List.map
    (fun c ->
      Stat.median (List.filter_map (fun (k, v) -> if k = c then Some v else None) samples))
    (List.sort_uniq compare (List.map fst samples))

let record_throughput t ~n ~wall_s =
  record t ~note:(Printf.sprintf "%d ops in %.2f s" n wall_s) "run.ops_per_s" "1/s"
    (float_of_int n /. wall_s)

(* The primary end-to-end metric of a workload: the geometric mean over
   op classes of each class's median op time. *)
let record_ops t ~samples ~wall_s =
  let medians = class_medians samples in
  let n = List.length samples in
  record t
    ~note:(Printf.sprintf "geomean of %d class medians, %d ops" (List.length medians) n)
    "op_ms" "ms"
    (1e3 *. Stat.geomean medians);
  record_throughput t ~n ~wall_s

(* A tail metric, or nothing when the samples cannot support one. *)
let record_tail t name unit ~scale xs =
  match Stat.tail xs with
  | Some (p, v) ->
      record t
        ~note:(Printf.sprintf "p%g of %d" (100.0 *. p) (List.length xs))
        name unit (scale *. v)
  | None ->
      Printf.printf "# %s dropped: %d samples leave fewer than 10 beyond p75\n"
        name (List.length xs)

let record_median t name unit ~scale xs =
  if xs <> [] then
    record t ~note:(Printf.sprintf "median of %d" (List.length xs)) name unit
      (scale *. Stat.median xs)

(* Per-layer self times from the spans, as [<layer>.self_s] per round. *)
let record_self_times t ~layers ~per =
  let selfs = Span.self_by_layer () in
  List.iter
    (fun l ->
      match List.assoc_opt l selfs with
      | Some s -> record t (l ^ ".self_s") "s" (s /. per)
      | None -> ())
    layers;
  Option.iter (record t "trace.coverage" "ratio") (Span.coverage ())
