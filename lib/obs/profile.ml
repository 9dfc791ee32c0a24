(* Wall-time phase accounting (see the .mli). Two pieces of state:

   - the profiler itself: path-keyed phase entries whose counters live
     in a metrics registry (lock-free updates, exact under concurrency)
     and, optionally, a bounded timeline of individual phase spans;
   - per-execution-context frame stacks. Contexts are (domain, thread)
     pairs, not domains: the serving tier runs concurrent handler
     threads on domain 0, and a per-domain stack would interleave two
     requests' phases. Same discipline as [Journal]'s ambient context.

   The frame stack of a context is only ever touched by that context,
   so frames need no synchronization; the context table itself is a
   CAS-swapped assoc list (a handful of live contexts at any time), and
   entries are removed when a context's stack empties so short-lived
   handler threads do not accumulate. *)

module J = Jsonw

type entry = {
  path : string;
  depth : int;
  overlay : bool;
  c_count : Metrics.counter;
  c_total : Metrics.counter;  (* ns *)
  c_self : Metrics.counter;  (* ns *)
  h : Hdr.t;
}

(* One finished phase, as the timeline keeps it. *)
type span = { s_path : string; s_start : float; s_dur_ns : int; s_tid : int }

(* A phase claims its timeline slot with one fetch-and-add when it
   starts, so the outer phases of a long run keep theirs however many
   inner ones follow; claims past the cap are only counted. The phase
   writes its slot when it ends: a slot whose phase is still open holds
   [no_span]. *)
type timeline = { slots : span array; claimed : int Atomic.t }

let timeline_cap = 65_536
let no_span = { s_path = ""; s_start = 0.0; s_dur_ns = 0; s_tid = 0 }

type t = {
  reg : Metrics.t;
  created_at : float;
  lock : Mutex.t;  (* guards registration; reads are lock-free *)
  entries : (string * entry) list Atomic.t;  (* reverse registration order *)
  tl : timeline option;
}

let make ?(registry = Metrics.create ()) ~timeline () =
  {
    reg = registry;
    created_at = Unix.gettimeofday ();
    lock = Mutex.create ();
    entries = Atomic.make [];
    tl =
      (if timeline then
         Some
           { slots = Array.make timeline_cap no_span; claimed = Atomic.make 0 }
       else None);
  }

let create ?registry () = make ?registry ~timeline:false ()
let registry t = t.reg

(* --- the ambient profiler --------------------------------------------- *)

let current : t option Atomic.t = Atomic.make None

let enable ?registry ?(timeline = false) () =
  let t = make ?registry ~timeline () in
  Atomic.set current (Some t);
  t

let disable () = Atomic.set current None
let active () = Atomic.get current

(* --- phase entry registration ----------------------------------------- *)

let path_depth path =
  let d = ref 0 in
  String.iter (fun c -> if c = '/' then incr d) path;
  !d

let resolve t ~overlay path =
  match List.assoc_opt path (Atomic.get t.entries) with
  | Some e -> e
  | None ->
      Mutex.lock t.lock;
      let e =
        match List.assoc_opt path (Atomic.get t.entries) with
        | Some e -> e
        | None ->
            let e =
              {
                path;
                depth = path_depth path;
                overlay;
                c_count =
                  Metrics.counter t.reg ~help:"phase entries"
                    ("profile." ^ path ^ ".count");
                c_total =
                  Metrics.counter t.reg ~help:"phase wall time (ns)"
                    ("profile." ^ path ^ ".total_ns");
                c_self =
                  Metrics.counter t.reg
                    ~help:"phase wall time not in sub-phases (ns)"
                    ("profile." ^ path ^ ".self_ns");
                h =
                  Metrics.hdr t.reg ~help:"phase duration (s)"
                    ("profile.phase." ^ path);
              }
            in
            Atomic.set t.entries ((path, e) :: Atomic.get t.entries);
            e
      in
      Mutex.unlock t.lock;
      e

(* --- per-context frame stacks ----------------------------------------- *)

type frame = {
  f_entry : entry;
  f_start : float;
  mutable f_child_ns : int;
  f_slot : int;  (* timeline slot claimed at entry; -1 without a timeline *)
}
type ctx = { mutable base : string; mutable frames : frame list }

let ctx_table : ((int * int) * ctx) list Atomic.t = Atomic.make []
let ctx_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))
let find_ctx () = List.assoc_opt (ctx_key ()) (Atomic.get ctx_table)

let rec install_ctx key c =
  let old = Atomic.get ctx_table in
  if not (Atomic.compare_and_set ctx_table old ((key, c) :: old)) then
    install_ctx key c

let rec remove_ctx key =
  let old = Atomic.get ctx_table in
  if not (Atomic.compare_and_set ctx_table old (List.remove_assoc key old))
  then remove_ctx key

let get_ctx () =
  let key = ctx_key () in
  match List.assoc_opt key (Atomic.get ctx_table) with
  | Some c -> c
  | None ->
      let c = { base = ""; frames = [] } in
      install_ctx key c;
      c

let maybe_retire ctx =
  if ctx.base = "" && ctx.frames = [] then remove_ctx (ctx_key ())

let child_path parent name = if parent = "" then name else parent ^ "/" ^ name

let context_path ctx =
  match ctx.frames with f :: _ -> f.f_entry.path | [] -> ctx.base

let ns_of_span a b =
  let d = (b -. a) *. 1e9 in
  if d <= 0.0 then 0 else int_of_float d

let enter t name =
  let ctx = get_ctx () in
  let e = resolve t ~overlay:false (child_path (context_path ctx) name) in
  ctx.frames <-
    {
      f_entry = e;
      f_start = Unix.gettimeofday ();
      f_child_ns = 0;
      f_slot =
        (match t.tl with
        | Some tl -> Atomic.fetch_and_add tl.claimed 1
        | None -> -1);
    }
    :: ctx.frames

let leave t =
  match find_ctx () with
  | None -> ()
  | Some ctx -> (
      match ctx.frames with
      | [] -> ()
      | f :: rest ->
          ctx.frames <- rest;
          let dur_ns = ns_of_span f.f_start (Unix.gettimeofday ()) in
          Metrics.bump f.f_entry.c_count;
          Metrics.add f.f_entry.c_total dur_ns;
          Metrics.add f.f_entry.c_self (max 0 (dur_ns - f.f_child_ns));
          Hdr.record f.f_entry.h (float_of_int dur_ns *. 1e-9);
          (match t.tl with
          | Some tl when f.f_slot < timeline_cap ->
              tl.slots.(f.f_slot) <-
                {
                  s_path = f.f_entry.path;
                  s_start = f.f_start;
                  s_dur_ns = dur_ns;
                  s_tid = (Domain.self () :> int);
                }
          | _ -> ());
          (match rest with
          | parent :: _ -> parent.f_child_ns <- parent.f_child_ns + dur_ns
          | [] -> maybe_retire ctx))

let with_phase name f =
  match Atomic.get current with
  | None -> f ()
  | Some t ->
      enter t name;
      Fun.protect ~finally:(fun () -> leave t) f

let saved_path () =
  match Atomic.get current with
  | None -> ""
  | Some _ -> (
      match find_ctx () with Some ctx -> context_path ctx | None -> "")

let with_base path f =
  match Atomic.get current with
  | None -> f ()
  | Some _ ->
      let ctx = get_ctx () in
      let saved_base = ctx.base and saved_frames = ctx.frames in
      ctx.base <- path;
      ctx.frames <- [];
      Fun.protect
        ~finally:(fun () ->
          ctx.base <- saved_base;
          ctx.frames <- saved_frames;
          maybe_retire ctx)
        f

(* --- batched timers ---------------------------------------------------- *)

(* Reading the clock twice per call costs about as much as the cheapest
   instrumented sites do themselves (the abstract prune check runs per
   attempted extension, ~0.5us), so the timer counts every call exactly
   but reads the clock on every 64th call and charges each sample for
   64 calls at flush: a few ns amortized per call, at the price of the
   batch total being a statistical estimate. A live timer starts at a
   random phase of its period, so every call, a fresh timer's first
   call included, is sampled with probability 1/64 and the estimate is
   unbiased even when the first call of each short batch (a subtree's
   first prune decision) is its costliest. The Hdr observation is the
   batch's own estimate, its mean sampled call times its count, so a
   short batch reads neither 0 nor 64 calls' worth; a batch that took
   no sample records none. *)
let sample_every = 64
let timer_seeds = Atomic.make 0

type timer = {
  t_live : t option;
  t_name : string;
  mutable t_count : int;  (* every call, exact *)
  mutable t_skip : int;  (* calls until the next sample, this one included *)
  mutable t_samples : int;  (* clock-read calls of this batch *)
  mutable t_sampled_ns : int;
}

let timer name =
  let live = Atomic.get current in
  let phase () = Hashtbl.hash (Atomic.fetch_and_add timer_seeds 1) in
  {
    t_live = live;
    t_name = name;
    t_count = 0;
    t_skip =
      (if Option.is_none live then 0 else 1 + (phase () mod sample_every));
    t_samples = 0;
    t_sampled_ns = 0;
  }

let charge tm t0 =
  tm.t_samples <- tm.t_samples + 1;
  tm.t_sampled_ns <- tm.t_sampled_ns + ns_of_span t0 (Unix.gettimeofday ())

let timed tm f =
  match tm.t_live with
  | None -> f ()
  | Some _ when tm.t_skip > 1 ->
      tm.t_count <- tm.t_count + 1;
      tm.t_skip <- tm.t_skip - 1;
      f ()
  | Some _ -> (
      tm.t_count <- tm.t_count + 1;
      tm.t_skip <- sample_every;
      let t0 = Unix.gettimeofday () in
      match f () with
      | r ->
          charge tm t0;
          r
      | exception e ->
          charge tm t0;
          raise e)

let flush_timer tm =
  match tm.t_live with
  | None -> ()
  | Some t when tm.t_count > 0 ->
      let total_ns = tm.t_sampled_ns * sample_every in
      let ctx = get_ctx () in
      let e = resolve t ~overlay:false (child_path (context_path ctx) tm.t_name) in
      Metrics.add e.c_count tm.t_count;
      Metrics.add e.c_total total_ns;
      Metrics.add e.c_self total_ns;
      if tm.t_samples > 0 then
        Hdr.record e.h
          (float_of_int tm.t_sampled_ns *. float_of_int tm.t_count
          /. float_of_int tm.t_samples *. 1e-9);
      (match ctx.frames with
      | parent :: _ -> parent.f_child_ns <- parent.f_child_ns + total_ns
      | [] -> maybe_retire ctx);
      tm.t_count <- 0;
      tm.t_samples <- 0;
      tm.t_sampled_ns <- 0
  | Some _ -> ()

(* --- overlay notes ----------------------------------------------------- *)

let note name dt_s =
  match Atomic.get current with
  | None -> ()
  | Some t ->
      let e = resolve t ~overlay:true name in
      let ns = if dt_s <= 0.0 then 0 else int_of_float (dt_s *. 1e9) in
      Metrics.bump e.c_count;
      Metrics.add e.c_total ns;
      Hdr.record e.h dt_s

(* --- snapshots ---------------------------------------------------------- *)

type phase_snap = {
  p_path : string;
  p_depth : int;
  p_overlay : bool;
  p_count : int;
  p_total_s : float;
  p_self_s : float;
  p_hdr : Hdr.snapshot;
}

type snapshot = { wall_s : float; phases : phase_snap list }

let snapshot (t : t) =
  let phases =
    List.rev_map
      (fun (_, e) ->
        {
          p_path = e.path;
          p_depth = e.depth;
          p_overlay = e.overlay;
          p_count = Metrics.value e.c_count;
          p_total_s = float_of_int (Metrics.value e.c_total) *. 1e-9;
          p_self_s = float_of_int (Metrics.value e.c_self) *. 1e-9;
          p_hdr = Hdr.snapshot e.h;
        })
      (Atomic.get t.entries)
  in
  { wall_s = Unix.gettimeofday () -. t.created_at; phases }

let schema = "mirage.profile.v1"

let snapshot_json ?(include_hdrs = true) s =
  J.Obj
    [
      ("schema", J.Str schema);
      ("wall_s", J.Float s.wall_s);
      ( "phases",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 ([
                    ("path", J.Str p.p_path);
                    ("depth", J.Int p.p_depth);
                    ("overlay", J.Bool p.p_overlay);
                    ("count", J.Int p.p_count);
                    ("total_s", J.Float p.p_total_s);
                    ("self_s", J.Float p.p_self_s);
                  ]
                 @
                 if include_hdrs then [ ("hdr", Hdr.snap_to_json p.p_hdr) ]
                 else []))
             s.phases) );
    ]

(* --- the timeline as Chrome trace events ---------------------------------- *)

let last_component path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let timeline_counts t =
  match t.tl with
  | None -> (0, 0)
  | Some tl ->
      let n = Atomic.get tl.claimed in
      (min n timeline_cap, max 0 (n - timeline_cap))

let to_chrome_json t =
  let spans =
    match t.tl with
    | None -> []
    | Some tl ->
        List.filter
          (fun s -> s.s_path <> "")
          (Array.to_list (Array.sub tl.slots 0 (fst (timeline_counts t))))
  in
  let pid = J.Int (Unix.getpid ()) in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("name", J.Str (last_component s.s_path));
             ("ph", J.Str "X");
             ("ts", J.Float ((s.s_start -. t.created_at) *. 1e6));
             ("dur", J.Float (float_of_int s.s_dur_ns /. 1e3));
             ("pid", pid);
             ("tid", J.Int s.s_tid);
             ("args", J.Obj [ ("path", J.Str s.s_path) ]);
           ])
       spans)

(* --- analysis of a snapshot_json value ---------------------------------- *)

let num = function
  | J.Float f -> Some f
  | J.Int i -> Some (float_of_int i)
  | _ -> None

type parsed_phase = {
  q_path : string;
  q_depth : int;
  q_overlay : bool;
  q_count : int;
  q_total_s : float;
  q_self_s : float;
  q_p50_us : float option;
  q_p99_us : float option;
}

let parse_phases j =
  match J.member "phases" j with
  | Some (J.List l) ->
      Ok
        (List.filter_map
           (fun p ->
             let str k =
               match J.member k p with Some (J.Str s) -> Some s | _ -> None
             in
             let int_ k =
               match J.member k p with Some (J.Int i) -> Some i | _ -> None
             in
             let flt k = Option.bind (J.member k p) num in
             match (str "path", int_ "depth", int_ "count") with
             | Some path, Some depth, Some count ->
                 let hdr_q k =
                   Option.bind (J.member "hdr" p) (fun h ->
                       Option.bind (J.member k h) num)
                 in
                 Some
                   {
                     q_path = path;
                     q_depth = depth;
                     q_overlay =
                       (match J.member "overlay" p with
                       | Some (J.Bool b) -> b
                       | _ -> false);
                     q_count = count;
                     q_total_s = Option.value (flt "total_s") ~default:0.0;
                     q_self_s = Option.value (flt "self_s") ~default:0.0;
                     q_p50_us = hdr_q "p50_us";
                     q_p99_us = hdr_q "p99_us";
                   }
             | _ -> None)
           l)
  | Some _ -> Error "phases is not a list"
  | None -> Error "missing phases"

let coverage_of phases =
  let roots =
    List.filter (fun p -> p.q_depth = 0 && not p.q_overlay) phases
  in
  match roots with
  | [] -> None
  | _ ->
      let root =
        List.fold_left
          (fun a b -> if b.q_total_s > a.q_total_s then b else a)
          (List.hd roots) roots
      in
      let prefix = root.q_path ^ "/" in
      let plen = String.length prefix in
      let attributed =
        List.fold_left
          (fun acc p ->
            if
              p.q_depth = 1
              && (not p.q_overlay)
              && String.length p.q_path > plen
              && String.sub p.q_path 0 plen = prefix
            then acc +. p.q_total_s
            else acc)
          0.0 phases
      in
      let frac =
        if root.q_total_s <= 0.0 then 1.0 else attributed /. root.q_total_s
      in
      Some (root.q_path, frac)

let coverage j =
  match parse_phases j with Ok ps -> coverage_of ps | Error _ -> None

let fmt_time s =
  if s >= 1.0 then Printf.sprintf "%.2fs" s
  else if s >= 1e-3 then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.0fus" (s *. 1e6)

let render j =
  let ( let* ) = Result.bind in
  let* phases = parse_phases j in
  let wall = Option.bind (J.member "wall_s" j) num in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match wall with
  | Some w -> line "profile: %s wall" (fmt_time w)
  | None -> line "profile:");
  let main, overlays = List.partition (fun p -> not p.q_overlay) phases in
  let ordered = List.sort (fun a b -> compare a.q_path b.q_path) main in
  line "";
  line "%-44s %10s %10s %10s %10s %10s" "phase" "count" "total" "self" "p50"
    "p99";
  let row p =
    let label = String.make (2 * p.q_depth) ' ' ^ last_component p.q_path in
    let quant = function
      | Some us -> fmt_time (us *. 1e-6)
      | None -> "-"
    in
    line "%-44s %10d %10s %10s %10s %10s" label p.q_count
      (fmt_time p.q_total_s) (fmt_time p.q_self_s) (quant p.q_p50_us)
      (quant p.q_p99_us)
  in
  List.iter row ordered;
  if overlays <> [] then begin
    line "";
    line "overlays (attributed elsewhere, excluded from coverage):";
    List.iter
      (fun p ->
        line "%-44s %10d %10s" ("  " ^ p.q_path) p.q_count
          (fmt_time p.q_total_s))
      (List.sort (fun a b -> compare a.q_path b.q_path) overlays)
  end;
  (match coverage_of phases with
  | Some (root, frac) ->
      line "";
      line "attributed: %.1f%% of %s wall time in named sub-phases" (100.0 *. frac)
        root
  | None -> ());
  Ok (Buffer.contents buf)
