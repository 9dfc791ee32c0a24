(* serve_mix: an in-process [Service.Server] on a Unix socket with a
   fresh cache directory, driven by a closed loop of two clients, each in
   its own domain. *)

module J = Obs.Jsonw

(* Distinct fingerprints of the cheap families at small dims, each with
   its hand template at the same dims. LoRA is left out: the daemon
   searches the spec as given while [Mirage.superoptimize] searches its
   LAX partition piece, and for LoRA the two find different winners
   (16.0 vs 12.0 us on A100 at the reduced dims). *)
let specs () =
  let open Baselines.Templates in
  let rms b h d =
    (Printf.sprintf "rmsnorm_%dx%dx%d" b h d, rmsnorm_matmul_spec ~b ~h ~d,
     rmsnorm_matmul_fused ~b ~h ~d ~grid:2 ~iters:2)
  and gm b h f g =
    (Printf.sprintf "gatedmlp_%dx%dx%d" b h f, gated_mlp_spec ~b ~h ~f,
     gated_mlp_fused ~b ~h ~f ~grid:g ~iters:2)
  and nt b d g =
    (Printf.sprintf "ntrans_%dx%d" b d, ntrans_spec ~b ~d, ntrans_fused ~b ~d ~grid:g)
  in
  [
    rms 4 8 16; gm 2 4 16 2; gm 4 16 32 4; nt 2 16 2;
    rms 2 4 16; rms 2 8 8; gm 4 8 16 2; nt 4 32 4;
  ]

let clients = 2

(* Cache reads per client after each miss: the mix of the repository's
   serve bench, which follows every cold request with five warm ones. *)
let reads_per_miss = 5

let warmup_spec () = Baselines.Templates.gated_mlp_spec ~b:2 ~h:2 ~f:8

let base_config = Ctx.menu ~workers:1

type daemon = { server : Service.Server.t; socket_path : string; dir : string }

let start ctx =
  let dir = Ctx.fresh_dir ctx "srv" in
  let socket_path = Filename.concat dir "s.sock" in
  (* a registry of its own, so the metrics scrape sees only this
     daemon's requests *)
  let server =
    Service.Server.create ~registry:(Obs.Metrics.create ()) ~base_config ~socket_path
      ~cache_dir:(Filename.concat dir "cache") ()
  in
  Service.Server.start server;
  (match Service.Client.status ~socket_path with
  | Ok _ -> ()
  | Error m -> failwith ("daemon status: " ^ m));
  (* The warm-up op is a search in this process, through the library
     code the daemon runs: a warm-up request would leave its samples in
     the daemon's telemetry. *)
  let w = warmup_spec () in
  ignore (Mirage.superoptimize ~config:(Ctx.search_config ~workers:1 w) ~device:Ctx.device w);
  { server; socket_path; dir }

let stop d =
  ignore (Service.Client.shutdown ~socket_path:d.socket_path ());
  Service.Server.wait d.server;
  Ctx.rm_rf d.dir

let bool_field k j = match J.member k j with Some (J.Bool b) -> b | _ -> false

let num = function
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> nan

(* A response, reduced as soon as it arrives to what the checks need, so
   the benchmark does not hold every payload on its own heap. *)
type answer = {
  cached : bool;
  coalesced : bool;
  degraded : bool;
  best : Digest.t;  (** of the payload's winner *)
  payload : J.t option;  (** kept for misses only *)
}

type kind = Miss | Read

type reply = {
  spec : string;
  kind : kind;
  latency_s : float;
  answer : (answer, string * bool) result;  (** error, and whether the daemon refused *)
}

let summarize ~keep = function
  | Error m -> Error (m, false)
  | Ok j when Service.Client.error_kind j <> None -> Error (J.to_string j, true)
  | Ok j -> (
      match J.member "result" j with
      | None -> Error ("response without result", false)
      | Some p ->
          Ok
            {
              cached = bool_field "cached" j;
              coalesced = bool_field "coalesced" j;
              degraded =
                (match J.member "degraded" p with Some (J.List (_ :: _)) -> true | _ -> false);
              best =
                Digest.string (J.to_string (Option.value ~default:J.Null (J.member "best" p)));
              payload = (if keep then Some p else None);
            })

let mean xs = Stat.sum xs /. float_of_int (List.length xs)

let run ctx =
  (* The stream runs once per pass, each pass against a fresh daemon
     started outside the timed phase. *)
  let passes = Ctx.rounds ctx ~per_10s:1.5 in
  let d = ref (Ctx.setup ctx ~teardown:stop (fun () -> start ctx)) in
  let all = specs () in
  let names = List.map (fun (n, _, _) -> n) all in
  let graphs = List.map (fun (n, s, _) -> (n, Search.Checkpoint.graph_to_json s)) all in
  (* A pass is one round per spec, in seeded order. A round has two
     closed-loop phases. First both clients send the round's spec at
     once: one request leads the search and stores the result, the other
     joins it through single-flight (or, arriving after the store, reads
     the cache). Then each client sends [reads_per_miss] cache reads of
     specs missed so far, drawn by the seed. *)
  let stream () =
    let order = Ctx.shuffle ctx names in
    List.mapi
      (fun i miss ->
        let seen = Array.of_list (List.filteri (fun j _ -> j <= i) order) in
        ( miss,
          List.init clients (fun _ ->
              List.init reads_per_miss (fun _ ->
                  seen.(Random.State.int ctx.Ctx.rng (Array.length seen)))) ))
      order
  in
  let request socket_path kind n =
    let t0 = Ctx.now () in
    let resp =
      Span.op "service" "request" (fun () ->
          Service.Client.optimize_graph ~socket_path (List.assoc n graphs))
    in
    let latency_s = Ctx.now () -. t0 in
    { spec = n; kind; latency_s; answer = summarize ~keep:(kind = Miss) resp }
  in
  let phase kind streams =
    let socket_path = !d.socket_path in
    List.concat_map Domain.join
      (List.map
         (fun names -> Domain.spawn (fun () -> List.map (request socket_path kind) names))
         streams)
  in
  (* (miss spec, the round's replies), every round of every pass *)
  let rounds = ref [] and wall_s = ref 0.0 in
  for i = 1 to passes do
    if i > 1 then begin
      stop !d;
      d := start ctx
    end;
    let plan = stream () in
    let t0 = Ctx.now () in
    List.iter
      (fun (miss, reads) ->
        let misses = phase Miss (List.init clients (fun _ -> [ miss ])) in
        rounds := (miss, misses @ phase Read reads) :: !rounds)
      plan;
    wall_s := !wall_s +. (Ctx.now () -. t0)
  done;
  let d = !d and wall_s = !wall_s and rounds = List.rev !rounds in
  let replies = List.concat_map snd rounds in
  (* Check every answer: no errors, one search per round's spec, cache
     reads after it, and every payload the same as a direct search of the
     same spec. *)
  let payload = Hashtbl.create 8 and best = Hashtbl.create 8 in
  let rejected = ref 0 and coalesced = ref 0 and hits = ref 0 in
  List.iter
    (fun (miss, rs) ->
      let leaders =
        List.filter
          (fun r ->
            match r.answer with
            | Ok a -> r.kind = Miss && (not a.cached) && not a.coalesced
            | Error _ -> false)
          rs
      in
      if List.length leaders <> 1 then
        Ctx.fail ctx "%s: %d of %d concurrent first requests ran a search" miss
          (List.length leaders) clients)
    rounds;
  List.iter
    (fun r ->
      Ctx.attempt ctx;
      match r.answer with
      | Error (m, refused) ->
          if refused then incr rejected;
          Ctx.fail ctx "%s: %s" r.spec m
      | Ok a -> (
          if a.coalesced then incr coalesced;
          if a.cached then incr hits;
          if r.kind = Read && not a.cached then
            Ctx.fail ctx "%s: cache read answered cached=false" r.spec;
          if a.degraded then Ctx.fail ctx "%s: degraded payload" r.spec;
          Option.iter (Hashtbl.replace payload r.spec) a.payload;
          match Hashtbl.find_opt best r.spec with
          | Some b when b <> a.best ->
              Ctx.fail ctx "%s: payloads differ between requests" r.spec
          | Some _ -> ()
          | None -> Hashtbl.replace best r.spec a.best))
    replies;
  let ratios = ref [] in
  List.iter
    (fun (n, spec, template) ->
      match Hashtbl.find_opt payload n with
      | None -> ()
      | Some p ->
          let direct =
            Mirage.superoptimize
              ~config:(Ctx.search_config ~workers:Search.Config.default_workers spec)
              ~device:Ctx.device spec
          in
          let served_us = num (J.member "optimized_us" p) in
          if Float.abs (served_us -. direct.Mirage.optimized_us) > 1e-9 *. served_us then
            Ctx.fail ctx "%s: served %.6f us, direct search %.6f us" n served_us
              direct.Mirage.optimized_us;
          (match
             Option.map Search.Checkpoint.graph_of_json
               (Option.bind (J.member "best" p) (J.member "graph"))
           with
          | Some (Ok g) -> (
              match Verify.Random_test.equivalent ~trials:8 ~seed:ctx.Ctx.seed ~spec g with
              | Verify.Random_test.Equivalent -> ()
              | v ->
                  Ctx.fail ctx "%s: served winner fails re-verification: %s" n
                    (Verify.Random_test.to_string v))
          | _ -> Ctx.fail ctx "%s: served winner does not decode" n);
          ratios := (served_us /. Gpusim.Cost.total_us Ctx.device template) :: !ratios)
    all;
  let lat f = List.filter_map (fun r -> if f r then Some r.latency_s else None) replies in
  let n = List.length replies in
  (* [op_ms] covers whole rounds, the search and store of a miss with the
     cache reads after it: the mean request latency of each round, its
     median over passes per spec, and the geometric mean over specs. *)
  let medians =
    Ctx.class_medians
      (List.map (fun (m, rs) -> (m, mean (List.map (fun r -> r.latency_s) rs))) rounds)
  in
  Ctx.record ctx
    ~note:
      (Printf.sprintf "geomean of %d spec medians of round means, %d requests"
         (List.length medians) n)
    "op_ms" "ms"
    (1e3 *. Stat.geomean medians);
  Ctx.record_throughput ctx ~n ~wall_s;
  Ctx.record ctx ~note:(Printf.sprintf "geomean of %d specs" (List.length !ratios))
    "mirage.winner_over_template" "ratio" (Stat.geomean !ratios);
  Ctx.record_tail ctx "service.req_tail_ms" "ms" ~scale:1e3 (lat (fun _ -> true));
  Ctx.record_median ctx "service.hit_ms" "ms" ~scale:1e3 (lat (fun r -> r.kind = Read));
  Ctx.record_median ctx "service.miss_ms" "ms" ~scale:1e3 (lat (fun r -> r.kind = Miss));
  Ctx.record ctx "service.hit_ratio" "ratio" (float_of_int !hits /. float_of_int n);
  Ctx.record ctx "service.coalesced" "count" (float_of_int !coalesced);
  Ctx.record ctx "service.rejected" "count" (float_of_int !rejected);
  let cache = Service.Server.cache d.server in
  Ctx.record ctx "service.disk_kb" "KiB"
    (float_of_int (Service.Cache.disk_bytes cache) /. 1024.0);
  (* Stage latencies of the last pass, as the daemon's own telemetry
     reports them. A sample lands just after its response is written, so
     poll until all of the pass's requests are in. *)
  let want = n / passes in
  let rec scrape tries =
    match Service.Client.metrics ~socket_path:d.socket_path () with
    | Error m ->
        Ctx.fail ctx "metrics scrape: %s" m;
        None
    | Ok snap ->
        let total =
          Option.bind (J.member "histograms" snap) (fun h ->
              Option.bind (J.member "serve.total" h) (J.member "count"))
        in
        if num total >= float_of_int want || tries = 0 then Some snap
        else begin
          Thread.delay 0.01;
          scrape (tries - 1)
        end
  in
  (match scrape 200 with
  | None -> ()
  | Some snap ->
      List.iter
        (fun stage ->
          let p50 =
            Option.bind (J.member "histograms" snap) (fun h ->
                Option.bind (J.member ("serve." ^ stage) h) (J.member "p50_us"))
          in
          Ctx.record ctx (Printf.sprintf "service.stage.%s_p50_ms" stage) "ms" (num p50 /. 1e3))
        [ "queue_wait"; "cache_probe"; "search"; "serialize" ]);
  if ctx.Ctx.trace then begin
    (* Direct calls into the layers a request crosses, each timed on its
       own: fingerprint, cache read, crash-safe store, protocol round
       trip. *)
    Ctx.record_self_times ctx ~layers:[ "service" ] ~per:(float_of_int passes);
    (* median per-call time over [reps] spans of [batch] calls each *)
    let probe name ?(batch = 1) reps f =
      Stat.median
        (List.init reps (fun _ ->
             snd
               (Ctx.time (fun () ->
                    Span.op "service" name (fun () ->
                        for _ = 1 to batch do
                          f ()
                        done)))
             /. float_of_int batch))
    in
    let n0, spec0, _ = List.hd all in
    let config0 = Search.Config.for_spec ~base:base_config spec0 in
    let fp0 = Service.Fingerprint.make ~device:Ctx.device ~config:config0 spec0 in
    Ctx.record ctx "service.fingerprint_us" "us"
      (1e6
      *. probe "fingerprint" ~batch:20 25 (fun () ->
             ignore (Service.Fingerprint.make ~device:Ctx.device ~config:config0 spec0)));
    Ctx.record ctx "service.cache_find_us" "us"
      (1e6
      *. probe "cache_find" ~batch:1000 25 (fun () -> ignore (Service.Cache.find cache fp0)));
    (match Service.Cache.find cache fp0 with
    | Some p ->
        Ctx.record ctx "service.cache_store_ms" "ms"
          (1e3 *. probe "cache_store" 10 (fun () -> Service.Cache.store cache fp0 p))
    | None -> Ctx.fail ctx "cache has no entry for a served fingerprint");
    Ctx.record ctx "service.proto_rtt_us" "us"
      (1e6
      *. probe "status" 50 (fun () ->
             ignore (Service.Client.status ~socket_path:d.socket_path)));
    (* tracing overhead: cache reads of one spec, traced and untraced in
       alternating order, with nothing else in flight *)
    let g0 = List.assoc n0 graphs in
    let read () = ignore (Service.Client.optimize_graph ~socket_path:d.socket_path g0) in
    let traced = ref 0.0 and untraced = ref 0.0 in
    let timed_read on =
      Span.set_enabled on;
      let dt = snd (Ctx.time (fun () -> Span.op "service" "request" read)) in
      if on then traced := !traced +. dt else untraced := !untraced +. dt
    in
    for i = 1 to 100 do
      timed_read (i mod 2 = 0);
      timed_read (i mod 2 = 1)
    done;
    Span.set_enabled true;
    Ctx.record ctx "trace.overhead" "ratio" ((!traced /. !untraced) -. 1.0)
  end;
  stop d
