(* The serving tier's request telemetry: per-stage latency sketches
   (queue wait, cache probe, search, serialize, total), exclusive
   per-outcome counters, and the schema'd snapshot the wire protocol's
   "metrics" op returns: the daemon's p50/p99 per stage, and why each
   request ended as it did.

   A [sample] is one request's scratchpad: created at dispatch entry,
   stages appended as they complete, outcome settled once, folded into
   the histograms exactly once by [finish]. Samples are owned by one
   handler thread; the histograms and counters they fold into are
   lock-free, so concurrent handlers never coordinate. *)

module J = Obs.Jsonw

let snapshot_schema = "mirage.service.metrics.v1"

(* Stage and outcome vocabularies are closed: the exposition, the bench
   history keys and the CI assertions all iterate these. *)
let stages = [ "queue_wait"; "cache_probe"; "search"; "serialize"; "total" ]

let outcomes =
  [ "hit"; "miss"; "coalesced"; "error"; "timeout"; "overloaded" ]

type t = {
  registry : Obs.Metrics.t;
  started_at : float;
  h_stage : (string * Obs.Hdr.t) list;  (* stage name -> sketch *)
  c_outcome : (string * Obs.Metrics.counter) list;
  c_degraded : Obs.Metrics.counter;
}

let stage_hdr_name stage = "serve." ^ stage
let outcome_counter_name o = "serve.outcome." ^ o

let create ?(registry = Obs.Metrics.default ()) () =
  {
    registry;
    started_at = Unix.gettimeofday ();
    h_stage =
      List.map
        (fun s ->
          ( s,
            Obs.Metrics.hdr registry
              ~help:("request " ^ s ^ " latency (s)")
              (stage_hdr_name s) ))
        stages;
    c_outcome =
      List.map
        (fun o ->
          ( o,
            Obs.Metrics.counter registry
              ~help:("optimize requests ending in " ^ o)
              (outcome_counter_name o) ))
        outcomes;
    c_degraded =
      Obs.Metrics.counter registry ~help:"requests answered degraded"
        (outcome_counter_name "degraded");
  }

let registry t = t.registry

(* --- per-request samples ---------------------------------------------- *)

type sample = {
  op : string;
  t0 : float;
  mutable stages_acc : (string * float) list;  (* reverse order, seconds *)
  mutable outcome : string;  (* "" until settled; first settle wins *)
  mutable degraded : bool;
  mutable finished : bool;
  mutable total_s : float;
}

let start ~op =
  {
    op;
    t0 = Unix.gettimeofday ();
    stages_acc = [];
    outcome = "";
    degraded = false;
    finished = false;
    total_s = 0.0;
  }

let sample_op s = s.op

let add_stage s name dt = s.stages_acc <- (name, dt) :: s.stages_acc

let time_stage s name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> add_stage s name (Unix.gettimeofday () -. t0))
    f

let set_outcome s o = if s.outcome = "" then s.outcome <- o
let set_degraded s = s.degraded <- true

(* Fold the sample into the registry. Idempotent: connection teardown
   paths can race a dispatch-level finish without double counting.
   Stage sketches record for every request that ran the stage; the
   total sketch and outcome counters are optimize-scoped so cheap
   status/metrics polls cannot drag p50 down or dilute hit rate. *)
let finish t s =
  if not s.finished then begin
    s.finished <- true;
    s.total_s <- Unix.gettimeofday () -. s.t0;
    List.iter
      (fun (name, dt) ->
        match List.assoc_opt name t.h_stage with
        | Some h -> Obs.Hdr.record h dt
        | None -> ())
      s.stages_acc;
    if s.op = "optimize" || s.outcome = "error" then begin
      (match List.assoc_opt "total" t.h_stage with
      | Some h when s.op = "optimize" -> Obs.Hdr.record h s.total_s
      | _ -> ());
      (match List.assoc_opt s.outcome t.c_outcome with
      | Some c -> Obs.Metrics.bump c
      | None -> ());
      if s.degraded then Obs.Metrics.bump t.c_degraded
    end
  end

(* --- exposition -------------------------------------------------------- *)

let counter_value snap name =
  match List.assoc_opt name snap.Obs.Metrics.counters with
  | Some v -> v
  | None -> 0

let cache_rates snap =
  let hits =
    counter_value snap "service.cache.hit.mem"
    + counter_value snap "service.cache.hit.disk"
  in
  let misses = counter_value snap "service.cache.miss" in
  let total = hits + misses in
  let rate =
    if total = 0 then 0.0 else float_of_int hits /. float_of_int total
  in
  (hits, misses, rate)

let uptime_s t = Unix.gettimeofday () -. t.started_at

(* The search funnel, accumulated across every search this process ran
   (the server passes its registry to [Generator.run], so the Stats
   counters land here). *)
let funnel_counters =
  [
    "search.expanded";
    "search.reject.shape";
    "search.reject.memory";
    "search.reject.pruned_abstract";
    "search.reject.canonical";
    "search.duplicates";
    "search.candidates";
    "search.verified";
  ]

let has_prefix p name =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

(* A compact digest of the ambient profiler, when one is enabled: total
   attributed wall seconds per depth-1 phase — the full tree stays in
   [mirage_cli profile]. *)
let profile_digest () =
  match Obs.Profile.active () with
  | None -> []
  | Some p ->
      let s = Obs.Profile.snapshot p in
      let phases =
        List.filter_map
          (fun (ph : Obs.Profile.phase_snap) ->
            if ph.Obs.Profile.p_depth = 1 && not ph.Obs.Profile.p_overlay then
              Some (ph.Obs.Profile.p_path, J.Float ph.Obs.Profile.p_total_s)
            else None)
          s.Obs.Profile.phases
      in
      [
        ( "profile",
          J.Obj
            [
              ("schema", J.Str Obs.Profile.schema);
              ("wall_s", J.Float s.Obs.Profile.wall_s);
              ("phases", J.Obj phases);
            ] );
      ]

let snapshot_json ?(extra = []) t ~in_flight () =
  let snap = Obs.Metrics.snapshot t.registry in
  let hits, misses, hit_rate = cache_rates snap in
  J.Obj
    ([
       ("schema", J.Str snapshot_schema);
       ("uptime_s", J.Float (uptime_s t));
       ("in_flight", J.Int in_flight);
       ("requests", J.Int (counter_value snap "service.requests"));
       ( "outcomes",
         J.Obj
           (List.map
              (fun o ->
                (o, J.Int (counter_value snap (outcome_counter_name o))))
              (outcomes @ [ "degraded" ])) );
       ( "cache",
         J.Obj
           [
             ("hits", J.Int hits);
             ("misses", J.Int misses);
             ("hit_rate", J.Float hit_rate);
           ] );
       ( "journal",
         J.Obj
           [
             ( "dropped_events",
               J.Int (counter_value snap "journal.dropped_events") );
           ] );
       ( "search",
         J.Obj
           (List.map
              (fun n -> (n, J.Int (counter_value snap n)))
              funnel_counters) );
       ( "histograms",
         J.Obj
           (List.filter_map
              (fun (name, d) ->
                if has_prefix "serve." name || has_prefix "profile.phase." name
                then Some (name, Obs.Hdr.snap_to_json d)
                else None)
              snap.Obs.Metrics.hdrs) );
       ( "counters",
         J.Obj
           (List.map (fun (n, v) -> (n, J.Int v)) snap.Obs.Metrics.counters) );
       ( "gauges",
         J.Obj (List.map (fun (n, v) -> (n, J.Float v)) snap.Obs.Metrics.gauges)
       );
     ]
    @ profile_digest () @ extra)

let prometheus t = Obs.Prom.render (Obs.Metrics.snapshot t.registry)

(* --- snapshot validation ---------------------------------------------- *)

(* json_check-style structural validation of an exposition snapshot, so
   the CLI and CI can reject a malformed scrape at the edge instead of
   gating on garbage. *)

let check_snapshot j =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  let need_obj k =
    match J.member k j with
    | Some (J.Obj fields) -> Ok fields
    | Some _ -> err "%s is not an object" k
    | None -> err "missing %s" k
  in
  let num = function
    | J.Float f -> Some f
    | J.Int i -> Some (float_of_int i)
    | _ -> None
  in
  let* () =
    match J.member "schema" j with
    | Some (J.Str s) when s = snapshot_schema -> Ok ()
    | Some (J.Str s) -> err "schema %S, want %S" s snapshot_schema
    | _ -> err "missing schema"
  in
  let* () =
    match Option.bind (J.member "uptime_s" j) num with
    | Some u when u >= 0.0 -> Ok ()
    | Some u -> err "negative uptime_s %g" u
    | None -> err "missing uptime_s"
  in
  let* () =
    match J.member "in_flight" j with
    | Some (J.Int n) when n >= 0 -> Ok ()
    | _ -> err "missing/invalid in_flight"
  in
  let* () =
    match J.member "requests" j with
    | Some (J.Int n) when n >= 0 -> Ok ()
    | _ -> err "missing/invalid requests"
  in
  let* ofields = need_obj "outcomes" in
  let* () =
    List.fold_left
      (fun acc o ->
        let* () = acc in
        match List.assoc_opt o ofields with
        | Some (J.Int n) when n >= 0 -> Ok ()
        | _ -> err "outcomes.%s missing or invalid" o)
      (Ok ())
      (outcomes @ [ "degraded" ])
  in
  let* cfields = need_obj "cache" in
  let* () =
    match Option.bind (List.assoc_opt "hit_rate" cfields) num with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok ()
    | Some r -> err "cache.hit_rate %g outside [0,1]" r
    | None -> err "missing cache.hit_rate"
  in
  let* sfields = need_obj "search" in
  let* () =
    List.fold_left
      (fun acc n ->
        let* () = acc in
        match List.assoc_opt n sfields with
        | Some (J.Int v) when v >= 0 -> Ok ()
        | _ -> err "search.%s missing or invalid" n)
      (Ok ()) funnel_counters
  in
  let* hfields = need_obj "histograms" in
  let* () =
    List.fold_left
      (fun acc (name, h) ->
        let* () = acc in
        let q k =
          match Option.bind (J.member k h) num with
          | Some v when v >= 0.0 -> Ok v
          | _ -> err "histograms.%s.%s missing or negative" name k
        in
        let* count =
          match J.member "count" h with
          | Some (J.Int n) when n >= 0 -> Ok n
          | _ -> err "histograms.%s.count missing or invalid" name
        in
        let* eps =
          match Option.bind (J.member "error" h) num with
          | Some e when e > 0.0 && e < 1.0 -> Ok e
          | _ -> err "histograms.%s.error missing or invalid" name
        in
        let* p50 = q "p50_us" in
        let* p90 = q "p90_us" in
        let* p99 = q "p99_us" in
        let* mx = q "max_us" in
        if count = 0 then Ok ()
        else if not (p50 <= p90 && p90 <= p99) then
          err "histograms.%s quantiles not monotone (%g, %g, %g)" name p50 p90
            p99
        else if
          (* p99 is a bucket estimate, max is exact: the estimate may
             exceed the true max by up to eps — or, for values clamped
             below the sketch's lower bound (sub-microsecond queue
             waits), by the whole lo bucket (~2 us) *)
          p99 > (mx *. (1.0 +. (2.0 *. eps))) +. 2.0
        then err "histograms.%s p99 %g far above max %g" name p99 mx
        else Ok ())
      (Ok ()) hfields
  in
  let* ctrs = need_obj "counters" in
  List.fold_left
    (fun acc (name, v) ->
      let* () = acc in
      match v with
      | J.Int n when n >= 0 -> Ok ()
      | _ -> err "counter %s is not a non-negative int" name)
    (Ok ()) ctrs
