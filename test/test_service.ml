(* Tests for the optimization service: the canonical request
   fingerprint (α-invariance, semantic sensitivity, collision scan),
   the two-tier result cache (roundtrip, LRU, corruption quarantine),
   the differential end-to-end check (server answer == direct
   Search.Generator answer for every Fig. 7 workload; warm reply
   byte-identical to cold), the single-flight concurrency guarantee
   (N domains, one search), and the shared prune helper's single
   stats/journal site. *)

open Mugraph
module J = Obs.Jsonw

let reset () =
  Obs.Fault.clear ();
  Obs.Budget.reset_degradations ()

let with_reset f () =
  reset ();
  Fun.protect ~finally:reset f

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let small_config () =
  {
    Search.Config.default with
    Search.Config.grid_candidates = [ [| 2 |] ];
    forloop_candidates = [ [| 2 |] ];
    max_block_ops = 3;
    num_workers = 1;
    time_budget_s = 90.0;
  }

let prim bld p ins = Graph.Build.prim bld p ins

(* y = (X / C) @ W — the spec used throughout the resilience suite. *)
let div_matmul_spec ?(names = ("X", "C", "W")) ~b ~h ~d () =
  let nx, nc, nw = names in
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld nx [| b; h |] in
  let c = Graph.Build.input bld nc [| b; 1 |] in
  let w = Graph.Build.input bld nw [| h; d |] in
  let y = prim bld (Op.Binary Op.Div) [ x; c ] in
  let z = prim bld Op.Matmul [ y; w ] in
  Graph.Build.finish bld ~outputs:[ z ]

let fp ?(device = Gpusim.Device.a100) ?config g =
  let config = match config with Some c -> c | None -> small_config () in
  Service.Fingerprint.make ~device ~config g

(* --- fingerprint: unit ------------------------------------------------ *)

let test_fp_alpha_invariant () =
  let a = div_matmul_spec ~b:4 ~h:8 ~d:8 () in
  let b = div_matmul_spec ~names:("input", "scale", "weights") ~b:4 ~h:8 ~d:8 () in
  Alcotest.(check string) "renamed inputs, same fingerprint" (fp a) (fp b)

let test_fp_semantic_mutations () =
  let base = div_matmul_spec ~b:4 ~h:8 ~d:8 () in
  (* shape change *)
  Alcotest.(check bool) "shape change alters fp" true
    (fp base <> fp (div_matmul_spec ~b:4 ~h:8 ~d:16 ()));
  (* op swap *)
  let op_swapped =
    let bld = Graph.Build.create () in
    let x = Graph.Build.input bld "X" [| 4; 8 |] in
    let c = Graph.Build.input bld "C" [| 4; 1 |] in
    let w = Graph.Build.input bld "W" [| 8; 8 |] in
    let y = prim bld (Op.Binary Op.Mul) [ x; c ] in
    let z = prim bld Op.Matmul [ y; w ] in
    Graph.Build.finish bld ~outputs:[ z ]
  in
  Alcotest.(check bool) "op swap (Div -> Mul) alters fp" true
    (fp base <> fp op_swapped);
  (* edge rewire *)
  let rewired =
    let bld = Graph.Build.create () in
    let x = Graph.Build.input bld "X" [| 4; 8 |] in
    let _c = Graph.Build.input bld "C" [| 4; 1 |] in
    let w = Graph.Build.input bld "W" [| 8; 8 |] in
    let y = prim bld (Op.Binary Op.Div) [ x; x ] in
    let z = prim bld Op.Matmul [ y; w ] in
    Graph.Build.finish bld ~outputs:[ z ]
  in
  Alcotest.(check bool) "edge rewire alters fp" true (fp base <> fp rewired)

let test_fp_device_and_config () =
  let g = div_matmul_spec ~b:4 ~h:8 ~d:8 () in
  Alcotest.(check bool) "device parameters matter" true
    (fp ~device:Gpusim.Device.a100 g <> fp ~device:Gpusim.Device.h100 g);
  let renamed = { Gpusim.Device.a100 with Gpusim.Device.name = "A100-label" } in
  Alcotest.(check string) "device name is a label, not semantics"
    (fp ~device:Gpusim.Device.a100 g)
    (fp ~device:renamed g);
  let cfg = small_config () in
  Alcotest.(check string) "budget/worker/verify-path fields ignored"
    (fp ~config:cfg g)
    (fp
       ~config:
         {
           cfg with
           Search.Config.time_budget_s = 1.0;
           num_workers = 16;
           node_budget = 7;
           max_task_failures = 9;
           verify_fast_path = not cfg.Search.Config.verify_fast_path;
         }
       g);
  Alcotest.(check bool) "search-shaping fields matter" true
    (fp ~config:cfg g
    <> fp ~config:{ cfg with Search.Config.max_block_ops = 9 } g)

(* --- fingerprint: properties ------------------------------------------ *)

(* Rename every K_input in a codec JSON document with an injective
   salt-suffixed map — an α-renaming at the wire level. *)
let rec rename_inputs salt j =
  match j with
  | J.Obj fields when List.mem_assoc "k" fields -> (
      match (List.assoc "k" fields, List.assoc_opt "name" fields) with
      | J.Str "input", Some (J.Str old) ->
          J.Obj
            (List.map
               (fun (k, v) ->
                 if k = "name" then
                   (k, J.Str (Printf.sprintf "%s_r%d" old salt))
                 else (k, rename_inputs salt v))
               fields)
      | _ ->
          J.Obj (List.map (fun (k, v) -> (k, rename_inputs salt v)) fields))
  | J.Obj fields ->
      J.Obj (List.map (fun (k, v) -> (k, rename_inputs salt v)) fields)
  | J.List l -> J.List (List.map (rename_inputs salt) l)
  | _ -> j

let prop_alpha_renaming =
  QCheck2.Test.make ~count:100 ~name:"fingerprint invariant under α-renaming"
    QCheck2.Gen.(pair (Graph_gen.gen_graph ()) (int_range 1 1_000_000))
    (fun (g, salt) ->
      let renamed_json =
        rename_inputs salt (Search.Checkpoint.graph_to_json g)
      in
      match Search.Checkpoint.graph_of_json renamed_json with
      | Error m -> QCheck2.Test.fail_reportf "renamed graph rejected: %s" m
      | Ok g' -> fp g = fp g')

let test_fp_collision_scan () =
  (* 1k generated graph pairs: distinct canonical documents must never
     share a fingerprint. *)
  let rand = Random.State.make [| 0x5eed |] in
  let graphs =
    QCheck2.Gen.generate ~rand ~n:1000 (Graph_gen.gen_graph ())
  in
  let cfg = small_config () in
  let seen : (string, string) Hashtbl.t = Hashtbl.create 1024 in
  let collisions = ref 0 in
  List.iter
    (fun g ->
      let canon =
        J.to_string
          (Service.Fingerprint.canonical_json ~device:Gpusim.Device.a100
             ~config:cfg g)
      in
      let h = fp g in
      match Hashtbl.find_opt seen h with
      | Some canon' when canon' <> canon -> incr collisions
      | Some _ -> ()
      | None -> Hashtbl.add seen h canon)
    graphs;
  Alcotest.(check int) "no fingerprint collisions" 0 !collisions;
  Alcotest.(check bool) "scan exercised many distinct documents" true
    (Hashtbl.length seen > 100)

(* --- cache ------------------------------------------------------------ *)

let counter_value registry name = Obs.Metrics.value (Obs.Metrics.counter registry name)

let payload_of_int i =
  J.Obj [ ("schema", J.Str "test.payload"); ("i", J.Int i) ]

let test_cache_roundtrip () =
  let registry = Obs.Metrics.create () in
  let dir = tmpdir "mirage_cache" in
  let c = Service.Cache.create ~mem_capacity:8 ~registry ~dir () in
  let fp1 = String.make 32 'a' in
  Alcotest.(check bool) "miss on empty" true (Service.Cache.find c fp1 = None);
  Service.Cache.store c fp1 (payload_of_int 1);
  (match Service.Cache.find c fp1 with
  | Some p -> Alcotest.(check string) "mem hit" (J.to_string (payload_of_int 1)) (J.to_string p)
  | None -> Alcotest.fail "expected a memory hit");
  Service.Cache.clear_mem c;
  (match Service.Cache.find c fp1 with
  | Some p ->
      Alcotest.(check string) "disk hit after clear_mem"
        (J.to_string (payload_of_int 1))
        (J.to_string p)
  | None -> Alcotest.fail "expected a disk hit");
  Alcotest.(check int) "one disk hit counted" 1
    (counter_value registry "service.cache.hit.disk");
  Alcotest.(check bool) "at least one mem hit counted" true
    (counter_value registry "service.cache.hit.mem" >= 1)

let test_cache_lru () =
  let registry = Obs.Metrics.create () in
  let dir = tmpdir "mirage_cache" in
  let c = Service.Cache.create ~mem_capacity:2 ~registry ~dir () in
  let k i = Printf.sprintf "%032d" i in
  List.iter (fun i -> Service.Cache.store c (k i) (payload_of_int i)) [ 1; 2; 3 ];
  Alcotest.(check int) "memory tier capped" 2 (Service.Cache.mem_entries c);
  Alcotest.(check int) "all entries on disk" 3 (Service.Cache.disk_entries c);
  Alcotest.(check int) "evictions counted" 1
    (counter_value registry "service.cache.evict");
  (* the evicted (oldest) entry is still servable from disk *)
  match Service.Cache.find c (k 1) with
  | Some p ->
      Alcotest.(check string) "evicted entry refilled from disk"
        (J.to_string (payload_of_int 1))
        (J.to_string p)
  | None -> Alcotest.fail "evicted entry lost"

let test_cache_quarantine () =
  let registry = Obs.Metrics.create () in
  let dir = tmpdir "mirage_cache" in
  let c = Service.Cache.create ~mem_capacity:8 ~registry ~dir () in
  let corrupt fp content =
    Service.Cache.store c fp (payload_of_int 9);
    let oc = open_out (Service.Cache.entry_path c fp) in
    output_string oc content;
    close_out oc;
    Service.Cache.clear_mem c
  in
  (* unparsable bytes *)
  let fp1 = String.make 32 'b' in
  corrupt fp1 "not json at all {{{";
  Alcotest.(check bool) "corrupt entry is a miss, not a crash" true
    (Service.Cache.find c fp1 = None);
  (* wrong schema *)
  let fp2 = String.make 32 'c' in
  corrupt fp2 {|{"schema":"something.else","fingerprint":"x","payload":{}}|};
  Alcotest.(check bool) "foreign schema is a miss" true
    (Service.Cache.find c fp2 = None);
  (* fingerprint mismatch *)
  let fp3 = String.make 32 'd' in
  corrupt fp3
    (J.to_string
       (J.Obj
          [
            ("schema", J.Str Service.Cache.entry_schema);
            ("fingerprint", J.Str (String.make 32 'z'));
            ("payload", payload_of_int 1);
          ]));
  Alcotest.(check bool) "fingerprint mismatch is a miss" true
    (Service.Cache.find c fp3 = None);
  Alcotest.(check int) "all three quarantined" 3
    (counter_value registry "service.cache.quarantine");
  Alcotest.(check int) "quarantined entries left the store" 0
    (Service.Cache.disk_entries c);
  (* the slot is reusable after quarantine *)
  Service.Cache.store c fp1 (payload_of_int 42);
  match Service.Cache.find c fp1 with
  | Some p ->
      Alcotest.(check string) "slot reusable after quarantine"
        (J.to_string (payload_of_int 42))
        (J.to_string p)
  | None -> Alcotest.fail "store after quarantine failed"

(* --- differential end-to-end ------------------------------------------ *)

let get_exn path j =
  let rec go j = function
    | [] -> j
    | k :: rest -> (
        match J.member k j with
        | Some v -> go v rest
        | None -> Alcotest.fail (Printf.sprintf "response lacks %s" k))
  in
  go j path

let make_server ?(mem_capacity = 64) () =
  let registry = Obs.Metrics.create () in
  Service.Server.create ~mem_capacity ~registry ~device:Gpusim.Device.a100
    ~base_config:(small_config ()) ~verify_trials:2
    ~socket_path:(Filename.temp_file "mirage_sock" ".sock")
    ~cache_dir:(tmpdir "mirage_srv_cache") ()

let optimize_req name = J.Obj [ ("op", J.Str "optimize"); ("benchmark", J.Str name) ]

let test_differential =
  with_reset @@ fun () ->
  let server = make_server () in
  List.iter
    (fun (b : Workloads.Bench_defs.benchmark) ->
      let name = b.Workloads.Bench_defs.name in
      (* cold: the server runs the search *)
      let cold = Service.Server.handle_request server (optimize_req name) in
      Alcotest.(check string)
        (name ^ ": cold status ok") "ok"
        (match get_exn [ "status" ] cold with J.Str s -> s | _ -> "?");
      Alcotest.(check bool) (name ^ ": cold not cached") false
        (get_exn [ "cached" ] cold = J.Bool true);
      (* direct: the same derivation the server used, run by hand *)
      let spec, _ = b.Workloads.Bench_defs.reduced () in
      let config = Search.Config.for_spec ~base:(small_config ()) spec in
      let budget = Search.Budget.of_config config in
      let o =
        Search.Generator.run ~config ~verify_trials:2 ~budget
          ~device:Gpusim.Device.a100 ~spec ()
      in
      let direct_best =
        match o.Search.Generator.best with
        | Some bst -> bst
        | None -> Alcotest.fail "direct search returned no best"
      in
      Alcotest.(check string)
        (name ^ ": best muGraph identical")
        (J.to_string
           (Search.Checkpoint.graph_to_json direct_best.Search.Generator.graph))
        (J.to_string (get_exn [ "result"; "best"; "graph" ] cold));
      Alcotest.(check string)
        (name ^ ": best cost identical")
        (J.to_string (Gpusim.Cost.to_json direct_best.Search.Generator.cost))
        (J.to_string (get_exn [ "result"; "best"; "cost" ] cold));
      (* warm: byte-identical payload out of the cache *)
      let warm = Service.Server.handle_request server (optimize_req name) in
      Alcotest.(check bool) (name ^ ": warm is cached") true
        (get_exn [ "cached" ] warm = J.Bool true);
      Alcotest.(check string)
        (name ^ ": warm payload byte-identical to cold")
        (J.to_string (get_exn [ "result" ] cold))
        (J.to_string (get_exn [ "result" ] warm)))
    (Workloads.Bench_defs.all ())

(* --- single-flight concurrency ---------------------------------------- *)

let count_events events typ =
  List.length (List.filter (fun e -> Obs.Journal.typ_of e = typ) events)

let req_with_id name rid =
  J.Obj
    [
      ("op", J.Str "optimize");
      ("benchmark", J.Str name);
      ("request_id", J.Str rid);
    ]

let test_single_flight =
  with_reset @@ fun () ->
  let journal_path = Filename.temp_file "mirage_svc_journal" ".jsonl" in
  ignore (Obs.Journal.enable journal_path);
  Fun.protect ~finally:Obs.Journal.disable @@ fun () ->
  let server = make_server () in
  let n = 5 in
  let rids = List.init n (Printf.sprintf "sf-%d") in
  let domains =
    List.map
      (fun rid ->
        Domain.spawn (fun () ->
            Service.Server.handle_request server (req_with_id "rmsnorm" rid)))
      rids
  in
  let responses = List.map Domain.join domains in
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "request %d ok" i)
        "ok"
        (match get_exn [ "status" ] r with J.Str s -> s | _ -> "?"))
    responses;
  (* all clients got the same payload *)
  let payloads =
    List.map (fun r -> J.to_string (get_exn [ "result" ] r)) responses
  in
  List.iter
    (fun p -> Alcotest.(check string) "equal results across clients" (List.hd payloads) p)
    payloads;
  Obs.Journal.disable ();
  let events =
    match Obs.Journal.read_file journal_path with
    | Ok evs -> evs
    | Error m -> Alcotest.fail ("journal unreadable: " ^ m)
  in
  Alcotest.(check int) "exactly one underlying search" 1
    (count_events events "search.start");
  Alcotest.(check int) "every lifecycle completed" n
    (count_events events "request.done");
  (* trace propagation through coalescing: every lifecycle event carries
     its request's id, and each follower records the leader's *)
  let done_rids =
    List.filter_map
      (fun e ->
        if Obs.Journal.typ_of e = "request.done" then
          Some (Obs.Journal.rid_of e)
        else None)
      events
  in
  Alcotest.(check (list string))
    "every request id completed" (List.sort compare rids)
    (List.sort compare done_rids);
  List.iter
    (fun e ->
      if Obs.Journal.typ_of e = "request.coalesced" then begin
        let leader =
          match J.member "leader_rid" e with Some (J.Str s) -> s | _ -> "?"
        in
        Alcotest.(check bool) "leader_rid is one of the request ids" true
          (List.mem leader rids);
        Alcotest.(check bool) "follower's leader is another request" true
          (leader <> Obs.Journal.rid_of e)
      end)
    events

(* The search runs on a domain of its own, never on the handler's: the
   daemon's handlers, accept loop and progress streamers share one
   domain, and a search working on it would hold its lock throughout.
   Its events still carry the request's id. *)
let test_search_off_handler_domain =
  with_reset @@ fun () ->
  let journal_path = Filename.temp_file "mirage_svc_journal" ".jsonl" in
  ignore (Obs.Journal.enable journal_path);
  Fun.protect ~finally:(fun () ->
      Obs.Journal.disable ();
      Sys.remove journal_path)
  @@ fun () ->
  let server = make_server () in
  let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
  let r =
    Service.Server.handle_request server
      (J.Obj
         [
           ("op", J.Str "optimize");
           ("graph", Search.Checkpoint.graph_to_json spec);
           ("max_block_ops", J.Int 1);
           ("request_id", J.Str "own-dom");
         ])
  in
  Alcotest.(check string) "request ok" "ok"
    (match get_exn [ "status" ] r with J.Str s -> s | _ -> "?");
  Obs.Journal.disable ();
  let events =
    match Obs.Journal.read_file journal_path with
    | Ok evs -> evs
    | Error m -> Alcotest.fail ("journal unreadable: " ^ m)
  in
  let dom e = match J.member "dom" e with Some (J.Int d) -> d | _ -> -1 in
  let here = (Domain.self () :> int) in
  let of_typ t = List.filter (fun e -> Obs.Journal.typ_of e = t) events in
  List.iter
    (fun e ->
      Alcotest.(check int) "request.done on the handler's domain" here (dom e))
    (of_typ "request.done");
  let expands = of_typ "cand.expand" in
  Alcotest.(check bool) "the search expanded prefixes" true (expands <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "expansion off the handler's domain" true
        (dom e <> here);
      Alcotest.(check string) "expansion carries the request id" "own-dom"
        (Obs.Journal.rid_of e))
    expands

let test_corrupt_entry_researched =
  with_reset @@ fun () ->
  let journal_path = Filename.temp_file "mirage_svc_journal" ".jsonl" in
  ignore (Obs.Journal.enable journal_path);
  Fun.protect ~finally:Obs.Journal.disable @@ fun () ->
  let server = make_server () in
  let cache = Service.Server.cache server in
  let r1 = Service.Server.handle_request server (optimize_req "rmsnorm") in
  let fp =
    match get_exn [ "fingerprint" ] r1 with
    | J.Str s -> s
    | _ -> Alcotest.fail "no fingerprint"
  in
  (* corrupt the payload *semantically*: valid envelope, broken graph *)
  let oc = open_out (Service.Cache.entry_path cache fp) in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("schema", J.Str Service.Cache.entry_schema);
            ("fingerprint", J.Str fp);
            ( "payload",
              J.Obj [ ("best", J.Obj [ ("graph", J.Str "garbage") ]) ] );
          ]));
  close_out oc;
  Service.Cache.clear_mem cache;
  let r2 = Service.Server.handle_request server (optimize_req "rmsnorm") in
  Alcotest.(check string) "re-request survives corruption" "ok"
    (match get_exn [ "status" ] r2 with J.Str s -> s | _ -> "?");
  Alcotest.(check bool) "corrupt entry was not served" false
    (get_exn [ "cached" ] r2 = J.Bool true);
  Alcotest.(check string)
    "re-searched result equals the original"
    (J.to_string (get_exn [ "result"; "best"; "graph" ] r1))
    (J.to_string (get_exn [ "result"; "best"; "graph" ] r2));
  Obs.Journal.disable ();
  let events =
    match Obs.Journal.read_file journal_path with
    | Ok evs -> evs
    | Error m -> Alcotest.fail ("journal unreadable: " ^ m)
  in
  Alcotest.(check int) "corruption journaled as quarantine" 1
    (count_events events "cache.quarantine");
  Alcotest.(check int) "two searches: original and re-search" 2
    (count_events events "search.start")

(* --- telemetry: ids, metrics op, slow-request forensics ----------------- *)

let test_request_id_roundtrip =
  with_reset @@ fun () ->
  let server = make_server () in
  let r1 =
    Service.Server.handle_request server (req_with_id "rmsnorm" "r-echo.1")
  in
  Alcotest.(check string) "explicit id echoed" "r-echo.1"
    (match get_exn [ "request_id" ] r1 with J.Str s -> s | _ -> "?");
  let r2 = Service.Server.handle_request server (optimize_req "rmsnorm") in
  (match get_exn [ "request_id" ] r2 with
  | J.Str rid ->
      Alcotest.(check bool) "bare frame gets a valid minted id" true
        (Service.Reqid.valid rid)
  | _ -> Alcotest.fail "no request_id on response");
  match
    get_exn [ "request_id" ]
      (Service.Server.handle_request server (J.Obj [ ("op", J.Str "status") ]))
  with
  | J.Str _ -> ()
  | _ -> Alcotest.fail "status response lacks request_id"

let test_metrics_op =
  with_reset @@ fun () ->
  let server = make_server () in
  let _cold = Service.Server.handle_request server (optimize_req "rmsnorm") in
  let _warm = Service.Server.handle_request server (optimize_req "rmsnorm") in
  let m =
    Service.Server.handle_request server (J.Obj [ ("op", J.Str "metrics") ])
  in
  (match Service.Telemetry.check_snapshot m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "snapshot fails its own validator: %s" e);
  let outcome k =
    match get_exn [ "outcomes"; k ] m with J.Int i -> i | _ -> -1
  in
  Alcotest.(check int) "one miss (cold search)" 1 (outcome "miss");
  Alcotest.(check int) "one hit (warm cache)" 1 (outcome "hit");
  let hist name field =
    match get_exn [ "histograms"; name; field ] m with
    | J.Int i -> i
    | _ -> -1
  in
  Alcotest.(check int) "both requests in serve.total" 2
    (hist "serve.total" "count");
  Alcotest.(check int) "one search timed" 1 (hist "serve.search" "count");
  Alcotest.(check int) "both cache probes timed" 2
    (hist "serve.cache_probe" "count");
  (match get_exn [ "cache"; "hit_rate" ] m with
  | J.Float r ->
      Alcotest.(check (float 1e-9)) "hit rate 1 of 2" 0.5 r
  | _ -> Alcotest.fail "no cache.hit_rate");
  (* prometheus text format *)
  let p =
    Service.Server.handle_request server
      (J.Obj [ ("op", J.Str "metrics"); ("format", J.Str "prometheus") ])
  in
  match get_exn [ "text" ] p with
  | J.Str text ->
      Alcotest.(check bool) "prometheus text mentions the stage sketch" true
        (let sub = "serve_total" in
         let ls = String.length sub and lt = String.length text in
         let rec go i =
           i + ls <= lt && (String.sub text i ls = sub || go (i + 1))
         in
         go 0)
  | _ -> Alcotest.fail "no prometheus text"

let test_slow_forensics =
  with_reset @@ fun () ->
  let journal_path = Filename.temp_file "mirage_slow_journal" ".jsonl" in
  ignore (Obs.Journal.enable journal_path);
  Fun.protect ~finally:Obs.Journal.disable @@ fun () ->
  let slow_dir = tmpdir "mirage_slow" in
  let server =
    Service.Server.create
      ~registry:(Obs.Metrics.create ())
      ~device:Gpusim.Device.a100 ~base_config:(small_config ())
      ~verify_trials:2 ~slow_threshold_s:0.0 ~slow_dir
      ~socket_path:(Filename.temp_file "mirage_sock" ".sock")
      ~cache_dir:(tmpdir "mirage_srv_cache") ()
  in
  let rid = "r-slow.target" and other = "r-slow.other" in
  let r1 = Service.Server.handle_request server (req_with_id "rmsnorm" rid) in
  Alcotest.(check string) "slow request still ok" "ok"
    (match get_exn [ "status" ] r1 with J.Str s -> s | _ -> "?");
  (* a second, distinct request: its events must NOT leak into the
     first request's report *)
  let _r2 =
    Service.Server.handle_request server (req_with_id "gatedmlp" other)
  in
  let rdir = Filename.concat slow_dir rid in
  let report_path = Filename.concat rdir "report.json" in
  Alcotest.(check bool) "report directory written" true
    (Sys.file_exists report_path);
  (match
     Obs.Jsonw.of_string
       (In_channel.with_open_text report_path In_channel.input_all)
   with
  | Error m -> Alcotest.failf "report.json unparsable: %s" m
  | Ok rep ->
      Alcotest.(check string) "report schema" Service.Slowlog.report_schema
        (match get_exn [ "schema" ] rep with J.Str s -> s | _ -> "?");
      Alcotest.(check string) "report rid" rid
        (match get_exn [ "request_id" ] rep with J.Str s -> s | _ -> "?");
      Alcotest.(check (list string)) "artifacts actually written"
        [ "report.json"; "journal.jsonl" ]
        (match get_exn [ "artifacts" ] rep with
        | J.List l -> List.map (function J.Str s -> s | _ -> "?") l
        | _ -> []));
  (* the acceptance invariant: the slice holds exactly this request's
     events — full lifecycle present, other requests absent *)
  (match Obs.Journal.read_file (Filename.concat rdir "journal.jsonl") with
  | Error m -> Alcotest.failf "journal slice unreadable: %s" m
  | Ok events ->
      Alcotest.(check bool) "slice non-empty" true (events <> []);
      List.iter
        (fun e ->
          Alcotest.(check string) "every sliced event carries the rid" rid
            (Obs.Journal.rid_of e))
        events;
      Alcotest.(check int) "request.recv in slice" 1
        (count_events events "request.recv");
      Alcotest.(check int) "request.done in slice" 1
        (count_events events "request.done");
      Alcotest.(check int) "the search itself is in the slice" 1
        (count_events events "search.start"));
  match Service.Server.slowlog server with
  | None -> Alcotest.fail "slowlog not armed"
  | Some sl ->
      Alcotest.(check bool) "captures counted" true
        (Service.Slowlog.captured sl >= 1)

(* --- shared prune helper ----------------------------------------------- *)

(* One invariant: the prefix engine counts and journals every reject
   from one site per kind — a visited try's own [cand.reject], or one
   event for the tries a prefix counts in bulk, carrying ["tries": n] —
   so for every reason the journal's rejects, each standing for
   [tries * roots] tries, equal the search's count: the funnel's for
   the funnel reasons (duplicates also count the generator's
   [graph.duplicate]s), the [search.block.reject.*] counters for the
   block level's own cuts and the [search.<level>.reject.unreachable]
   counters for the goal-distance cut; at both levels (kernel and
   block) combined. *)
let test_prune_single_site =
  with_reset @@ fun () ->
  let journal_path = Filename.temp_file "mirage_prune_journal" ".jsonl" in
  ignore (Obs.Journal.enable journal_path);
  Fun.protect ~finally:Obs.Journal.disable @@ fun () ->
  let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
  let o =
    Search.Generator.run ~config:(small_config ()) ~device:Gpusim.Device.a100
      ~spec ()
  in
  let snap = o.Search.Generator.stats in
  Obs.Journal.disable ();
  let events =
    match Obs.Journal.read_file journal_path with
    | Ok evs -> evs
    | Error m -> Alcotest.fail ("journal unreadable: " ^ m)
  in
  let int_field k e = match J.member k e with Some (J.Int n) -> n | _ -> 1 in
  (* a block-level event of a root class stands for its "roots" tries,
     a bulk event for its "tries" *)
  let journaled reason =
    List.fold_left
      (fun acc e ->
        if
          Obs.Journal.typ_of e = "cand.reject"
          && J.member "reason" e = Some (J.Str reason)
        then acc + (int_field "tries" e * int_field "roots" e)
        else acc)
      0 events
  in
  let bulk =
    List.exists
      (fun e -> Obs.Journal.typ_of e = "cand.reject" && J.member "tries" e <> None)
      events
  in
  let counter name =
    match List.assoc_opt name o.Search.Generator.metrics.Obs.Metrics.counters with
    | Some n -> n
    | None -> Alcotest.failf "no counter %s" name
  in
  let s = snap in
  let expected =
    [
      ("shape", s.Search.Stats.shape_rejected);
      ("memory", s.Search.Stats.memory_rejected);
      ( "duplicate",
        s.Search.Stats.duplicates - count_events events "graph.duplicate" );
      ("canonical", s.Search.Stats.canonical_rejected);
      ("pruned_abstract", s.Search.Stats.pruned_abstract);
      ("phase", counter "search.block.reject.phase");
      ("dangling", counter "search.block.reject.dangling");
      ( "unreachable",
        counter "search.kernel.reject.unreachable"
        + counter "search.block.reject.unreachable" );
    ]
  in
  Alcotest.(check int) "every reason is checked" Search.Tally.n_reasons
    (List.length expected);
  Alcotest.(check bool) "the search exercised abstract pruning" true
    (snap.Search.Stats.pruned_abstract > 0);
  Alcotest.(check bool) "the search exercised the goal-distance cut" true
    (List.assoc "unreachable" expected > 0);
  Alcotest.(check bool) "some tries were counted in bulk" true bulk;
  List.iter
    (fun (reason, n) ->
      Alcotest.(check int)
        (Printf.sprintf "journal and stats agree on %s" reason)
        n (journaled reason))
    expected

let test_prune_helper_equivalence () =
  (* The helper is exactly the old inline condition. *)
  let cfg = small_config () in
  let target =
    Mugraph.Abstract.output_exprs (div_matmul_spec ~b:4 ~h:8 ~d:8 ())
  in
  let solver = Smtlite.Solver.create ~target in
  let front = Smtlite.Solver.front solver 0 in
  let sub = Absexpr.Nf.of_expr (Absexpr.Expr.var "X") in
  let expected =
    cfg.Search.Config.use_abstract_pruning
    && not (Smtlite.Solver.check_front front sub)
  in
  Alcotest.(check bool) "check mirrors the inline condition" expected
    (Search.Prune.check cfg ~front sub);
  let off = { cfg with Search.Config.use_abstract_pruning = false } in
  Alcotest.(check bool) "pruning disabled -> never rejects" false
    (Search.Prune.check off ~front sub)

(* --- persistent prune-query cache -------------------------------------- *)

(* Round trip through the content-addressed store: a cold search writes
   its decided queries behind; a second search over the same spec (fresh
   solver, same cache dir) answers misses from disk. *)
let test_prune_store_roundtrip =
  with_reset @@ fun () ->
  let dir = tmpdir "mirage_prunecache" in
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:8 () in
  let run_with cache =
    Search.Generator.run ~config:(small_config ())
      ~prune_persist:(Service.Prune_store.attach ~cache)
      ~device:Gpusim.Device.a100 ~spec ()
  in
  let cold = run_with (Service.Cache.create ~dir ()) in
  let sv = cold.Search.Generator.solver in
  Alcotest.(check bool) "cold run persisted decided queries" true
    (sv.Smtlite.Solver.disk_entries > 0);
  Alcotest.(check int) "cold run had no disk hits" 0
    sv.Smtlite.Solver.disk_hits;
  (* the envelope landed at the goals-keyed content address *)
  let probe = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
  let fp = Service.Prune_store.fingerprint probe in
  let cache2 = Service.Cache.create ~dir () in
  Alcotest.(check bool) "entry on disk" true
    (Sys.file_exists (Service.Cache.entry_path cache2 fp));
  Alcotest.(check (float 0.0)) "cold run: disk hit ratio 0" 0.0
    (Smtlite.Solver.disk_hit_ratio sv);
  let warm = run_with cache2 in
  let wv = warm.Search.Generator.solver in
  Alcotest.(check bool) "warm run answered misses from disk" true
    (wv.Smtlite.Solver.disk_hits > 0);
  Alcotest.(check (float 0.0)) "warm run: every decision from disk" 1.0
    (Smtlite.Solver.disk_hit_ratio wv);
  (* a "warm" run against an emptied cache decides everything anew: the
     ratio bench enum gates falls to 0 (its miss side reads 1) *)
  let emptied = tmpdir "mirage_prunecache_emptied" in
  let gone = run_with (Service.Cache.create ~dir:emptied ()) in
  Alcotest.(check (float 0.0)) "emptied cache: no decision from disk" 0.0
    (Smtlite.Solver.disk_hit_ratio gone.Search.Generator.solver);
  Alcotest.(check bool) "warm and cold agree on the best cost" true
    (match (cold.Search.Generator.best, warm.Search.Generator.best) with
    | Some a, Some b ->
        a.Search.Generator.cost.Gpusim.Cost.total_us
        = b.Search.Generator.cost.Gpusim.Cost.total_us
    | None, None -> true
    | _ -> false)

(* A search makes one durable prune-cache write, when it finishes,
   however many decisions it makes: a store rewrites the whole
   envelope, so storing as decisions pile up would cost O(n^2) bytes.
   A second search of the same goals answers from that one write. *)
let test_prune_store_one_write =
  with_reset @@ fun () ->
  let dir = tmpdir "mirage_prunecache_once" in
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:8 () in
  let run_counting () =
    let cache = Service.Cache.create ~dir () in
    let stores = ref 0 in
    let attach solver =
      let p = Service.Prune_store.persist ~cache solver in
      Smtlite.Solver.attach_persist solver
        {
          p with
          Smtlite.Solver.p_store =
            (fun env ->
              incr stores;
              p.Smtlite.Solver.p_store env);
        }
    in
    let o =
      Search.Generator.run ~config:(small_config ()) ~prune_persist:attach
        ~device:Gpusim.Device.a100 ~spec ()
    in
    (o.Search.Generator.solver, !stores)
  in
  let cold, cold_stores = run_counting () in
  Alcotest.(check bool)
    (Printf.sprintf "the search decided more than a few hundred queries (%d)"
       cold.Smtlite.Solver.disk_entries)
    true
    (cold.Smtlite.Solver.disk_entries > 512);
  Alcotest.(check int) "a fresh store is written once" 1 cold_stores;
  let warm, _ = run_counting () in
  Alcotest.(check bool) "the second search answers from that write" true
    (warm.Smtlite.Solver.disk_hits > 0)

(* A tampered envelope is quarantined — at either layer — and the search
   degrades to a cold run instead of failing. *)
let test_prune_store_corrupt_quarantined =
  with_reset @@ fun () ->
  let dir = tmpdir "mirage_prunecache_bad" in
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:8 () in
  let run_with cache =
    Search.Generator.run ~config:(small_config ())
      ~prune_persist:(Service.Prune_store.attach ~cache)
      ~device:Gpusim.Device.a100 ~spec ()
  in
  ignore (run_with (Service.Cache.create ~dir ()));
  let probe = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
  let fp = Service.Prune_store.fingerprint probe in
  let path = Service.Cache.entry_path (Service.Cache.create ~dir ()) fp in
  (* layer 1: torn bytes on disk — the store's envelope check catches it *)
  let oc = open_out path in
  output_string oc "{\"torn\":";
  close_out oc;
  let cache = Service.Cache.create ~dir ~recover:false () in
  let o = run_with cache in
  Alcotest.(check int) "torn entry served no hits" 0
    o.Search.Generator.solver.Smtlite.Solver.disk_hits;
  Alcotest.(check bool) "search still produced a best" true
    (o.Search.Generator.best <> None);
  Alcotest.(check bool) "torn entry quarantined off the hot path" true
    (not (Sys.file_exists path)
    || Sys.file_exists (path ^ ".quarantined"));
  (* layer 2: a well-formed store entry whose payload is not a prune
     envelope — the solver's schema check hands it to p_corrupt *)
  let cache = Service.Cache.create ~dir () in
  Service.Cache.store cache fp (J.Obj [ ("schema", J.Str "bogus.v0") ]);
  let o2 = run_with cache in
  Alcotest.(check int) "foreign payload served no hits" 0
    o2.Search.Generator.solver.Smtlite.Solver.disk_hits;
  Alcotest.(check bool) "cold re-run re-persisted a fresh envelope" true
    (o2.Search.Generator.solver.Smtlite.Solver.disk_entries > 0)

(* --- progress streaming ------------------------------------------------ *)

(* In-process: a cold optimize that opted in receives at least one
   schema-valid, rid-tagged frame, and the counters never move
   backwards across the frame sequence. *)
let test_progress_frames =
  with_reset @@ fun () ->
  let server = make_server () in
  let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
  let req extra =
    J.Obj
      ([
         ("op", J.Str "optimize");
         ("graph", Search.Checkpoint.graph_to_json spec);
         ("request_id", J.Str "prog-1");
       ]
      @ extra)
  in
  let opted =
    req [ ("progress", J.Bool true); ("progress_interval_ms", J.Int 10) ]
  in
  let frames = ref [] in
  let resp =
    Service.Server.handle_request ~push:(fun f -> frames := f :: !frames)
      server opted
  in
  Alcotest.(check string) "cold status ok" "ok"
    (match J.member "status" resp with Some (J.Str s) -> s | _ -> "?");
  let frames = List.rev !frames in
  Alcotest.(check bool) "at least one frame streamed" true (frames <> []);
  List.iter
    (fun f ->
      (match Service.Proto.check_progress f with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid frame: %s" m);
      Alcotest.(check bool) "frame is a progress event" true
        (Service.Proto.is_progress f);
      Alcotest.(check string) "frame tagged with the request's rid" "prog-1"
        (match J.member "request_id" f with Some (J.Str s) -> s | _ -> "?"))
    frames;
  let ints k =
    List.map
      (fun f -> match J.member k f with Some (J.Int i) -> i | _ -> -1)
      frames
  in
  let monotone name xs =
    ignore
      (List.fold_left
         (fun prev x ->
           Alcotest.(check bool)
             (Printf.sprintf "%s monotone (%d -> %d)" name prev x)
             true (x >= prev);
           x)
         (-1) xs)
  in
  monotone "seq" (ints "seq");
  List.iteri
    (fun i s ->
      Alcotest.(check int) "seq dense from 0" i s)
    (ints "seq");
  monotone "nodes_expanded" (ints "nodes_expanded");
  monotone "candidates" (ints "candidates");
  monotone "verified" (ints "verified");
  monotone "tasks_stolen" (ints "tasks_stolen");
  (* warm: the cache answers, nothing streams *)
  let warm_frames = ref [] in
  let warm =
    Service.Server.handle_request
      ~push:(fun f -> warm_frames := f :: !warm_frames)
      server opted
  in
  Alcotest.(check bool) "warm served from cache" true
    (J.member "cached" warm = Some (J.Bool true));
  Alcotest.(check int) "cache hit streams no frames" 0
    (List.length !warm_frames)

(* Over the real socket: an opted-in cold request interleaves progress
   frames before the response; a legacy request's response stream is
   byte-identical with and without another client's opt-in — exactly
   one frame, same bytes as an opted-in warm request's only frame. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then begin
      let r = Unix.read fd buf off (n - off) in
      if r = 0 then raise End_of_file;
      go (off + r)
    end
  in
  go 0;
  Bytes.to_string buf

let read_raw_frames fd =
  let rec go acc =
    match read_exact fd 4 with
    | exception End_of_file -> List.rev acc
    | hdr ->
        let b i = Char.code hdr.[i] in
        let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
        go (read_exact fd n :: acc)
  in
  go []

let raw_request socket_path req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Service.Proto.write_frame fd req;
      read_raw_frames fd)

let test_progress_wire =
  with_reset @@ fun () ->
  let server = make_server () in
  let socket_path = Filename.temp_file "mirage_prog_sock" ".sock" in
  Sys.remove socket_path;
  let server =
    (* a fresh server bound to a real socket (make_server's path is for
       in-process use); same config and a fresh cache *)
    ignore server;
    Service.Server.create ~registry:(Obs.Metrics.create ())
      ~device:Gpusim.Device.a100 ~base_config:(small_config ())
      ~verify_trials:2 ~socket_path
      ~cache_dir:(tmpdir "mirage_prog_cache") ()
  in
  Service.Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Service.Server.wait server)
    (fun () ->
      Alcotest.(check bool) "daemon ready" true
        (Service.Client.wait_ready ~socket_path ());
      let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
      let req rid extra =
        J.Obj
          ([
             ("op", J.Str "optimize");
             ("graph", Search.Checkpoint.graph_to_json spec);
             ("request_id", J.Str rid);
           ]
          @ extra)
      in
      let opted =
        [ ("progress", J.Bool true); ("progress_interval_ms", J.Int 10) ]
      in
      (* cold, opted in: >= 1 progress frame strictly before the result *)
      let cold = raw_request socket_path (req "wire-cold" opted) in
      Alcotest.(check bool) "cold stream has >= 2 frames" true
        (List.length cold >= 2);
      let rec split_last = function
        | [] -> Alcotest.fail "empty stream"
        | [ x ] -> ([], x)
        | x :: rest ->
            let init, last = split_last rest in
            (x :: init, last)
      in
      let progress_raw, final_raw = split_last cold in
      List.iter
        (fun raw ->
          match J.of_string raw with
          | Error m -> Alcotest.failf "unparsable frame: %s" m
          | Ok f ->
              Alcotest.(check bool) "interleaved frame is progress" true
                (Service.Proto.is_progress f);
              (match Service.Proto.check_progress f with
              | Ok () -> ()
              | Error m -> Alcotest.failf "invalid frame: %s" m))
        progress_raw;
      (match J.of_string final_raw with
      | Ok f ->
          Alcotest.(check bool) "final frame is the response" false
            (Service.Proto.is_progress f)
      | Error m -> Alcotest.failf "unparsable response: %s" m);
      (* warm, legacy vs opted in, same rid: byte-identical single
         response frame — opting in costs a silent request nothing and
         legacy clients see exactly the old wire format *)
      let legacy = raw_request socket_path (req "wire-warm" []) in
      let withp = raw_request socket_path (req "wire-warm" opted) in
      Alcotest.(check int) "legacy stream is one frame" 1 (List.length legacy);
      Alcotest.(check int) "warm opted-in stream is one frame" 1
        (List.length withp);
      Alcotest.(check string) "byte-identical responses"
        (List.hd legacy) (List.hd withp))

(* --- hardening: admission, quotas, deadlines, crash-safe cache --------- *)

(* The three admission gates, exercised directly: each bound rejects
   with the right typed kind and retry hint, and releases restore
   capacity. Token-bucket math is checked against an injected clock. *)
let test_admit_gates () =
  let registry = Obs.Metrics.create () in
  let a =
    Service.Admit.create ~registry ~max_connections:2 ~max_queue_depth:1
      ~tenant_rate:0.5 ~tenant_burst:2.0 ~retry_after_s:0.25 ()
  in
  (* live-connection bound *)
  Alcotest.(check bool) "conn 1 admitted" true
    (Service.Admit.try_conn a = Service.Admit.Admitted);
  Alcotest.(check bool) "conn 2 admitted" true
    (Service.Admit.try_conn a = Service.Admit.Admitted);
  (match Service.Admit.try_conn a with
  | Service.Admit.Rejected r ->
      Alcotest.(check string) "conn 3 typed overloaded" "overloaded"
        r.Service.Admit.kind;
      Alcotest.(check (float 1e-9)) "carries the retry hint" 0.25
        r.Service.Admit.retry_after_s
  | Service.Admit.Admitted -> Alcotest.fail "third connection not shed");
  Service.Admit.conn_done a;
  Alcotest.(check bool) "released slot re-admits" true
    (Service.Admit.try_conn a = Service.Admit.Admitted);
  (* search-queue bound *)
  Alcotest.(check bool) "queue 1 admitted" true
    (Service.Admit.try_queue a = Service.Admit.Admitted);
  (match Service.Admit.try_queue a with
  | Service.Admit.Rejected r ->
      Alcotest.(check string) "queue 2 typed overloaded" "overloaded"
        r.Service.Admit.kind
  | Service.Admit.Admitted -> Alcotest.fail "second queued search not shed");
  Service.Admit.queue_done a;
  Alcotest.(check bool) "drained queue re-admits" true
    (Service.Admit.try_queue a = Service.Admit.Admitted);
  (* per-tenant token bucket: burst 2, refill 0.5 tokens/s *)
  let at now who = Service.Admit.check_tenant ~now a (Some who) in
  Alcotest.(check bool) "tenantless traffic exempt" true
    (Service.Admit.check_tenant ~now:0.0 a None = Service.Admit.Admitted);
  Alcotest.(check bool) "burst token 1" true (at 0.0 "acme" = Service.Admit.Admitted);
  Alcotest.(check bool) "burst token 2" true (at 0.0 "acme" = Service.Admit.Admitted);
  (match at 0.0 "acme" with
  | Service.Admit.Rejected r ->
      Alcotest.(check string) "dry bucket typed quota_exceeded"
        "quota_exceeded" r.Service.Admit.kind;
      (* empty bucket at rate 0.5/s: the next token is 2 s away *)
      Alcotest.(check (float 1e-6)) "exact refill wait" 2.0
        r.Service.Admit.retry_after_s
  | Service.Admit.Admitted -> Alcotest.fail "dry bucket admitted");
  Alcotest.(check bool) "other tenants unaffected" true
    (at 0.0 "rival" = Service.Admit.Admitted);
  Alcotest.(check bool) "refill admits again" true
    (at 2.0 "acme" = Service.Admit.Admitted);
  Alcotest.(check int) "rejections counted" 1
    (counter_value registry "service.admit.reject.quota")

(* A quota-armed server answers an out-of-tokens tenant with a typed
   quota_exceeded carrying retry_after_s — it never hangs or drops. *)
let test_quota_server =
  with_reset @@ fun () ->
  let registry = Obs.Metrics.create () in
  let server =
    Service.Server.create ~registry ~device:Gpusim.Device.a100
      ~base_config:(small_config ()) ~verify_trials:2 ~tenant_rate:0.01
      ~tenant_burst:1.0
      ~socket_path:(Filename.temp_file "mirage_sock" ".sock")
      ~cache_dir:(tmpdir "mirage_srv_cache") ()
  in
  let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
  let req =
    J.Obj
      [
        ("op", J.Str "optimize");
        ("graph", Search.Checkpoint.graph_to_json spec);
        ("tenant", J.Str "acme");
      ]
  in
  let r1 = Service.Server.handle_request server req in
  Alcotest.(check string) "first request spends the burst token" "ok"
    (match get_exn [ "status" ] r1 with J.Str s -> s | _ -> "?");
  let r2 = Service.Server.handle_request server req in
  Alcotest.(check string) "second is typed quota_exceeded" "quota_exceeded"
    (match get_exn [ "error" ] r2 with J.Str s -> s | _ -> "?");
  Alcotest.(check bool) "carries a positive retry_after_s" true
    (match get_exn [ "retry_after_s" ] r2 with
    | J.Float s -> s > 0.0
    | _ -> false);
  Alcotest.(check bool) "rid still echoed on rejections" true
    (match J.member "request_id" r2 with Some (J.Str _) -> true | _ -> false);
  Alcotest.(check int) "shed load counted" 1
    (counter_value registry "service.admit.reject.quota")

(* An expired end-to-end deadline answers a typed timeout — the stall is
   injected via serve.slow so the deadline expires deterministically
   before the queue wait — and the abandoned flight is retired, so the
   same fingerprint is immediately searchable again. *)
let test_deadline_timeout =
  with_reset @@ fun () ->
  (match Obs.Fault.configure "serve.slow:1.0:1" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Unix.putenv "MIRAGE_FAULT_SLOW_MS" "150";
  Fun.protect ~finally:(fun () -> Unix.putenv "MIRAGE_FAULT_SLOW_MS" "")
  @@ fun () ->
  let server = make_server () in
  let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
  let req extra =
    J.Obj
      ([ ("op", J.Str "optimize"); ("graph", Search.Checkpoint.graph_to_json spec) ]
      @ extra)
  in
  let r1 =
    Service.Server.handle_request server (req [ ("deadline_ms", J.Float 50.0) ])
  in
  Alcotest.(check string) "typed timeout" "timeout"
    (match get_exn [ "error" ] r1 with J.Str s -> s | _ -> "?");
  Alcotest.(check int) "abandoned flight retired" 0
    (Service.Server.flight_count server);
  (* the fault is spent (count 1): the same fingerprint now searches *)
  let r2 = Service.Server.handle_request server (req []) in
  Alcotest.(check string) "same fingerprint served after the timeout" "ok"
    (match get_exn [ "status" ] r2 with J.Str s -> s | _ -> "?")

(* A deadline that passes while the search runs is answered with the
   typed timeout, not an "ok" of whatever the search made in the time:
   the reduced RMSNorm search at two block ops takes several ms, far
   past a 1 ms deadline. *)
let test_deadline_during_search =
  with_reset @@ fun () ->
  let server = make_server () in
  let r =
    Service.Server.handle_request server
      (J.Obj
         [
           ("op", J.Str "optimize");
           ("benchmark", J.Str "rmsnorm");
           ("max_block_ops", J.Int 2);
           ("deadline_ms", J.Float 1.0);
         ])
  in
  Alcotest.(check string) "typed timeout" "timeout"
    (match J.member "error" r with Some (J.Str s) -> s | _ -> "?");
  Alcotest.(check int) "flight retired" 0 (Service.Server.flight_count server)

(* The fingerprint excludes budget and deadline, so a degraded answer
   must not be stored: a request whose tiny budget cuts its search is
   answered degraded, and the same spec asked again without a budget is
   searched afresh instead of served that answer from the cache. *)
let test_degraded_not_cached =
  with_reset @@ fun () ->
  let server = make_server () in
  let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
  let req extra =
    J.Obj
      ([ ("op", J.Str "optimize"); ("graph", Search.Checkpoint.graph_to_json spec) ]
      @ extra)
  in
  let degraded r =
    match get_exn [ "result"; "degraded" ] r with
    | J.List l -> l <> []
    | _ -> Alcotest.fail "degraded is not a list"
  in
  let r1 = Service.Server.handle_request server (req [ ("budget_s", J.Float 1e-6) ]) in
  Alcotest.(check string) "tight budget answered" "ok"
    (match get_exn [ "status" ] r1 with J.Str s -> s | _ -> "?");
  Alcotest.(check bool) "tight budget degraded" true (degraded r1);
  let r2 = Service.Server.handle_request server (req []) in
  Alcotest.(check string) "full search answered" "ok"
    (match get_exn [ "status" ] r2 with J.Str s -> s | _ -> "?");
  Alcotest.(check bool) "same fingerprint" true
    (get_exn [ "fingerprint" ] r1 = get_exn [ "fingerprint" ] r2);
  Alcotest.(check bool) "degraded answer not served from the cache" false
    (get_exn [ "cached" ] r2 = J.Bool true);
  Alcotest.(check bool) "full search not degraded" false (degraded r2);
  (* the complete answer is the one stored *)
  let r3 = Service.Server.handle_request server (req []) in
  Alcotest.(check bool) "complete answer cached" true
    (get_exn [ "cached" ] r3 = J.Bool true)

(* Crash residue — an orphaned temp file (kill -9 between write and
   rename) and a truncated result.json — is swept aside at startup:
   quarantined, counted, and the intact entry still serves. *)
let test_recovery_sweep () =
  let dir = tmpdir "mirage_cache" in
  let c1 = Service.Cache.create ~registry:(Obs.Metrics.create ()) ~dir () in
  let fp_good = String.make 32 'a' in
  Service.Cache.store c1 fp_good (payload_of_int 1);
  let good_path = Service.Cache.entry_path c1 fp_good in
  (* an orphaned temp next to the good entry *)
  let orphan =
    Filename.concat (Filename.dirname good_path) ".result.json.tmp.12345"
  in
  let oc = open_out orphan in
  output_string oc "{\"torn\":";
  close_out oc;
  (* a truncated envelope for another fingerprint *)
  let fp_torn = String.make 32 'e' in
  let torn_path = Service.Cache.entry_path c1 fp_torn in
  Unix.mkdir (Filename.concat dir "ee") 0o755;
  Unix.mkdir (Filename.dirname torn_path) 0o755;
  let oc = open_out torn_path in
  output_string oc "{\"schema\":\"mirage.service.result.v1\",\"finger";
  close_out oc;
  (* restart: a fresh cache over the same directory runs the sweep *)
  let registry = Obs.Metrics.create () in
  let c2 = Service.Cache.create ~registry ~dir () in
  Alcotest.(check int) "orphan temp recovered" 1
    (counter_value registry "service.cache.recovered");
  Alcotest.(check int) "truncated envelope quarantined" 1
    (counter_value registry "service.cache.quarantine");
  Alcotest.(check bool) "orphan moved out of the entry dir" false
    (Sys.file_exists orphan);
  Alcotest.(check bool) "orphan preserved under quarantine/" true
    (Array.exists
       (fun f -> String.length f >= 4)
       (Sys.readdir (Filename.concat dir "quarantine")));
  Alcotest.(check bool) "torn entry no longer served as truth" true
    (Service.Cache.find c2 fp_torn = None);
  (match Service.Cache.find c2 fp_good with
  | Some p ->
      Alcotest.(check string) "intact entry survives the sweep"
        (J.to_string (payload_of_int 1))
        (J.to_string p)
  | None -> Alcotest.fail "intact entry lost by recovery");
  Alcotest.(check bool) "byte occupancy seeded by the sweep" true
    (Service.Cache.disk_bytes c2 > 0)

(* The disk byte cap evicts least-recently-used entries (mtime order),
   never the entry just stored. *)
let test_disk_cap () =
  let registry = Obs.Metrics.create () in
  let dir = tmpdir "mirage_cache" in
  let big i =
    J.Obj
      [
        ("schema", J.Str "test.payload");
        ("i", J.Int i);
        ("fill", J.Str (String.make 1000 'x'));
      ]
  in
  let c =
    Service.Cache.create ~registry ~max_disk_bytes:2500 ~dir ()
  in
  let k i = Printf.sprintf "%032d" i in
  Service.Cache.store c (k 1) (big 1);
  Service.Cache.store c (k 2) (big 2);
  (* age entry 1 explicitly: mtime order is the eviction order *)
  Unix.utimes (Service.Cache.entry_path c (k 1)) 1.0 1.0;
  Service.Cache.store c (k 3) (big 3);
  Alcotest.(check bool) "tier shrunk to the cap" true
    (Service.Cache.disk_bytes c <= 2500);
  Alcotest.(check int) "oldest entry evicted" 2 (Service.Cache.disk_entries c);
  Alcotest.(check bool) "evictions counted" true
    (counter_value registry "service.cache.evict.disk" >= 1);
  Service.Cache.clear_mem c;
  Alcotest.(check bool) "evicted entry is a disk miss" true
    (Service.Cache.find c (k 1) = None);
  Alcotest.(check bool) "fresh store never self-evicts" true
    (Service.Cache.find c (k 3) <> None)

(* ENOSPC does not take the daemon down: the store degrades to
   memory-only mode (sticky, flagged through the degradation registry)
   and keeps serving from the memory tier. *)
let test_enospc_mem_only =
  with_reset @@ fun () ->
  (match Obs.Fault.configure "cache.enospc:1.0:1" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let dir = tmpdir "mirage_cache" in
  let c = Service.Cache.create ~registry:(Obs.Metrics.create ()) ~dir () in
  let fp1 = String.make 32 'a' in
  Service.Cache.store c fp1 (payload_of_int 1);
  Alcotest.(check bool) "store flipped to memory-only" true
    (Service.Cache.mem_only c);
  Alcotest.(check bool) "degradation registered" true
    (List.mem "service.cache.enospc" (Obs.Budget.degradations ()));
  Alcotest.(check int) "nothing written to the full disk" 0
    (Service.Cache.disk_entries c);
  Alcotest.(check bool) "memory tier still serves" true
    (Service.Cache.find c fp1 <> None);
  (* sticky: the fault is spent, but mem-only persists until restart *)
  let fp2 = String.make 32 'b' in
  Service.Cache.store c fp2 (payload_of_int 2);
  Alcotest.(check int) "later stores stay off disk" 0
    (Service.Cache.disk_entries c);
  Service.Cache.clear_mem c;
  Alcotest.(check bool) "memory-only means no disk fallback" true
    (Service.Cache.find c fp1 = None)

(* --- suite ------------------------------------------------------------- *)

let qsuite tests = List.map Qseed.to_alcotest tests

let () =
  Alcotest.run "service"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "alpha renaming preserves fp" `Quick
            test_fp_alpha_invariant;
          Alcotest.test_case "semantic mutations change fp" `Quick
            test_fp_semantic_mutations;
          Alcotest.test_case "device and config sensitivity" `Quick
            test_fp_device_and_config;
          Alcotest.test_case "collision scan over 1k graphs" `Quick
            test_fp_collision_scan;
        ]
        @ qsuite [ prop_alpha_renaming ] );
      ( "cache",
        [
          Alcotest.test_case "store/find roundtrip (mem + disk)" `Quick
            test_cache_roundtrip;
          Alcotest.test_case "memory tier is LRU-bounded" `Quick test_cache_lru;
          Alcotest.test_case "corrupted entries quarantined" `Quick
            test_cache_quarantine;
        ] );
      ( "differential",
        [
          Alcotest.test_case "server == direct search, warm == cold" `Slow
            test_differential;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "N domains, one search" `Slow test_single_flight;
          Alcotest.test_case "corrupt entry re-searched" `Slow
            test_corrupt_entry_researched;
          Alcotest.test_case "search off the handler's domain" `Slow
            test_search_off_handler_domain;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "request ids minted and echoed" `Slow
            test_request_id_roundtrip;
          Alcotest.test_case "metrics op: valid snapshot, counters" `Slow
            test_metrics_op;
          Alcotest.test_case "slow request leaves an rid-exact report" `Slow
            test_slow_forensics;
        ] );
      ( "progress",
        [
          Alcotest.test_case "frames valid, rid-tagged, monotone" `Slow
            test_progress_frames;
          Alcotest.test_case
            "wire: interleaved frames, legacy byte-identical" `Slow
            test_progress_wire;
        ] );
      ( "prune",
        [
          Alcotest.test_case "one stats/journal site" `Quick
            test_prune_single_site;
          Alcotest.test_case "helper mirrors inline condition" `Quick
            test_prune_helper_equivalence;
          Alcotest.test_case "query cache round-trips through the store"
            `Quick test_prune_store_roundtrip;
          Alcotest.test_case "one durable write per search" `Quick
            test_prune_store_one_write;
          Alcotest.test_case "corrupt cache entries quarantined" `Quick
            test_prune_store_corrupt_quarantined;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "admission gates: conn, queue, tenant" `Quick
            test_admit_gates;
          Alcotest.test_case "tenant quota: typed quota_exceeded" `Slow
            test_quota_server;
          Alcotest.test_case "expired deadline: typed timeout" `Slow
            test_deadline_timeout;
          Alcotest.test_case "deadline passed mid-search: typed timeout" `Quick
            test_deadline_during_search;
          Alcotest.test_case "degraded answer not cached" `Slow
            test_degraded_not_cached;
          Alcotest.test_case "startup recovery sweeps crash residue" `Quick
            test_recovery_sweep;
          Alcotest.test_case "disk byte cap evicts LRU entries" `Quick
            test_disk_cap;
          Alcotest.test_case "ENOSPC degrades to memory-only" `Quick
            test_enospc_mem_only;
        ] );
    ]
