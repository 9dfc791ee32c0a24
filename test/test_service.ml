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

let make_server ?(mem_capacity = 64) ?max_concurrent_searches ?cache_dir
    ?(base_config = small_config ()) () =
  let registry = Obs.Metrics.create () in
  let cache_dir =
    match cache_dir with Some d -> d | None -> tmpdir "mirage_srv_cache"
  in
  Service.Server.create ~mem_capacity ~registry ~device:Gpusim.Device.a100
    ~base_config ?max_concurrent_searches
    ~socket_path:(Filename.temp_file "mirage_sock" ".sock")
    ~cache_dir ()

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

(* Each daemon search counts into its own registry. A node budget that
   GatedMLP's search fits under alone must not be spent by an earlier
   RMSNorm search, and the payload's [verified] must be this search's
   own. The daemon's registry still gets every finished search's
   counters: its funnel is the two direct runs' sum. *)
let test_search_isolation =
  with_reset @@ fun () ->
  let base_config =
    { (small_config ()) with Search.Config.node_budget = 40_000 }
  in
  let server = make_server ~base_config () in
  let direct name =
    let b = Option.get (Workloads.Bench_defs.by_name name) in
    let spec, _ = b.Workloads.Bench_defs.reduced () in
    let config = Search.Config.for_spec ~base:base_config spec in
    Search.Generator.run ~config ~verify_trials:2
      ~budget:(Search.Budget.of_config config) ~device:Gpusim.Device.a100
      ~spec ()
  in
  let int_at path j = match get_exn path j with J.Int n -> n | _ -> -1 in
  ignore (Service.Server.handle_request server (optimize_req "RMSNorm"));
  let r = Service.Server.handle_request server (optimize_req "GatedMLP") in
  let rms = direct "RMSNorm" and gated = direct "GatedMLP" in
  Alcotest.(check bool) "a lone GatedMLP search fits the budget" false
    gated.Search.Generator.budget_exhausted;
  Alcotest.(check bool) "GatedMLP is not cut by RMSNorm's tries" false
    (get_exn [ "result"; "budget_exhausted" ] r = J.Bool true);
  Alcotest.(check int) "verified is the search's own"
    gated.Search.Generator.stats.Search.Stats.verified
    (int_at [ "result"; "verified" ] r);
  let m =
    Service.Server.handle_request server (J.Obj [ ("op", J.Str "metrics") ])
  in
  Alcotest.(check int) "the daemon's funnel sums its searches"
    (rms.Search.Generator.stats.Search.Stats.expanded
    + gated.Search.Generator.stats.Search.Stats.expanded)
    (int_at [ "search"; "search.expanded" ] m);
  Service.Server.stop server

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
  (* the search's candidate events: emitted and verified on the search's
     lane, a slot domain *)
  let cands = of_typ "graph.emit" @ of_typ "verify.verdict" in
  Alcotest.(check bool) "the search emitted candidates" true
    (of_typ "graph.emit" <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "candidate event off the handler's domain" true
        (dom e <> here);
      Alcotest.(check string) "candidate event carries the request id"
        "own-dom" (Obs.Journal.rid_of e))
    cands

(* --- search slots --------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [f ()] with the journal on; returns its result and the events. *)
let journaled f =
  let path = Filename.temp_file "mirage_svc_journal" ".jsonl" in
  ignore (Obs.Journal.enable path);
  let r = Fun.protect ~finally:Obs.Journal.disable f in
  let events =
    match Obs.Journal.read_file path with
    | Ok evs -> evs
    | Error m -> Alcotest.fail ("journal unreadable: " ^ m)
  in
  Sys.remove path;
  (r, events)

(* A cheap miss: its own fingerprint per (b, h, d). *)
let miss_req ?(b = 2) ?(h = 4) ?(d = 4) () =
  J.Obj
    [
      ("op", J.Str "optimize");
      ("graph", Search.Checkpoint.graph_to_json (div_matmul_spec ~b ~h ~d ()));
      ("max_block_ops", J.Int 1);
    ]

let status r = match get_exn [ "status" ] r with J.Str s -> s | _ -> "?"
let cached r = get_exn [ "cached" ] r = J.Bool true
let dom e = match J.member "dom" e with Some (J.Int d) -> d | _ -> -1

let start_doms events =
  List.filter_map
    (fun e -> if Obs.Journal.typ_of e = "search.start" then Some (dom e) else None)
    events

(* One slot: the second miss waits for the first one's writes, then
   runs on the domain the first one started. *)
let test_slot_reused =
  with_reset @@ fun () ->
  let server = make_server ~max_concurrent_searches:1 () in
  let rs, events =
    journaled (fun () ->
        List.map
          (fun d -> Service.Server.handle_request server (miss_req ~d ()))
          [ 4; 8 ])
  in
  List.iter
    (fun r ->
      Alcotest.(check string) "miss answered" "ok" (status r);
      Alcotest.(check bool) "a search ran" false (cached r))
    rs;
  (match start_doms events with
  | [ a; b ] ->
      Alcotest.(check int) "both searches on one domain" a b;
      Alcotest.(check bool) "not the handler's domain" true
        (a <> (Domain.self () :> int))
  | l -> Alcotest.failf "%d search.start events, not 2" (List.length l));
  Service.Server.stop server

let test_slots_bounded =
  with_reset @@ fun () ->
  let server = make_server ~max_concurrent_searches:2 () in
  let rs, events =
    journaled (fun () ->
        let out = Array.make 10 J.Null in
        List.iter Thread.join
          (List.init 10 (fun i ->
               Thread.create
                 (fun () ->
                   out.(i) <-
                     Service.Server.handle_request server
                       (miss_req ~b:(1 + (i / 5)) ~d:(4 * (1 + (i mod 5))) ()))
                 ()));
        Array.to_list out)
  in
  List.iter
    (fun r ->
      Alcotest.(check string) "miss answered" "ok" (status r);
      Alcotest.(check bool) "a search ran" false (cached r))
    rs;
  let doms = List.sort_uniq compare (start_doms events) in
  Alcotest.(check int) "ten searches" 10 (List.length (start_doms events));
  Alcotest.(check bool)
    (Printf.sprintf "%d search domains, at most 2" (List.length doms))
    true
    (List.length doms <= 2 && not (List.mem (Domain.self () :> int) doms));
  Service.Server.stop server

(* More servers than the runtime's 128 domains, one after another: each
   server's stop joins its slot's domain. *)
let test_many_servers =
  with_reset @@ fun () ->
  for i = 1 to 140 do
    let server = make_server () in
    let r = Service.Server.handle_request server (miss_req ()) in
    if status r <> "ok" then
      Alcotest.failf "server %d: %s" i (J.to_string r);
    Service.Server.stop server;
    Service.Server.wait server;
    rm_rf (Service.Cache.dir (Service.Server.cache server))
  done

let test_raising_search =
  with_reset @@ fun () ->
  let server = make_server ~max_concurrent_searches:1 () in
  (match Obs.Fault.configure "serve.search:1.0:1" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let (r1, r2), events =
    journaled (fun () ->
        let r1 = Service.Server.handle_request server (miss_req ~d:4 ()) in
        let r2 = Service.Server.handle_request server (miss_req ~d:8 ()) in
        (r1, r2))
  in
  Alcotest.(check string) "the raising search answers an error" "error" (status r1);
  Alcotest.(check string) "typed internal" "internal"
    (match get_exn [ "error" ] r1 with J.Str s -> s | _ -> "?");
  Alcotest.(check string) "the next miss is served" "ok" (status r2);
  Alcotest.(check bool) "by a search" false (cached r2);
  (match start_doms events with
  | [ a; b ] -> Alcotest.(check int) "on the same slot domain" a b
  | l -> Alcotest.failf "%d search.start events, not 2" (List.length l));
  Alcotest.(check int) "no flight left" 0 (Service.Server.flight_count server);
  Service.Server.stop server

let test_read_after_miss =
  with_reset @@ fun () ->
  let server = make_server () in
  let (r1, r2), events =
    journaled (fun () ->
        let r1 = Service.Server.handle_request server (miss_req ()) in
        (r1, Service.Server.handle_request server (miss_req ())))
  in
  Alcotest.(check bool) "miss" false (cached r1);
  Alcotest.(check bool) "the read right after it is a hit" true (cached r2);
  Alcotest.(check string) "same payload"
    (J.to_string (get_exn [ "result" ] r1))
    (J.to_string (get_exn [ "result" ] r2));
  Alcotest.(check int) "one search" 1 (List.length (start_doms events));
  Service.Server.stop server

(* A request whose probe missed can take the flight table's lock after
   the same fingerprint's leader has remembered its result and settled
   its flight. A one-shot stall at [serve.join] holds the first request
   between its probe and the flight lookup while the second leads the
   whole search; the first then finds no flight to join, and is
   answered from the memory tier instead of leading a second search. *)
let test_join_after_settle =
  with_reset @@ fun () ->
  (match Obs.Fault.configure "serve.join:1.0:1" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Unix.putenv "MIRAGE_FAULT_SLOW_MS" "1000";
  Fun.protect ~finally:(fun () -> Unix.putenv "MIRAGE_FAULT_SLOW_MS" "")
  @@ fun () ->
  let server = make_server () in
  let (r1, r2), events =
    journaled (fun () ->
        let first =
          Domain.spawn (fun () ->
              Service.Server.handle_request server (miss_req ()))
        in
        (* the first request reaches the stall long before this one
           probes *)
        Unix.sleepf 0.2;
        let r2 = Service.Server.handle_request server (miss_req ()) in
        (Domain.join first, r2))
  in
  Alcotest.(check (list (pair string int))) "one stall" [ ("serve.join", 1) ]
    (Obs.Fault.fired ());
  Alcotest.(check (list string)) "both ok" [ "ok"; "ok" ]
    [ status r1; status r2 ];
  Alcotest.(check (list bool)) "one search answer, one hit" [ false; true ]
    (List.sort compare [ cached r1; cached r2 ]);
  Alcotest.(check string) "same payload"
    (J.to_string (get_exn [ "result" ] r1))
    (J.to_string (get_exn [ "result" ] r2));
  Alcotest.(check int) "one search" 1 (List.length (start_doms events));
  Service.Server.stop server

let test_restart_reads_disk =
  with_reset @@ fun () ->
  let cache_dir = tmpdir "mirage_srv_cache" in
  let s1 = make_server ~cache_dir () in
  let r1 = Service.Server.handle_request s1 (miss_req ()) in
  Alcotest.(check bool) "miss" false (cached r1);
  Service.Server.stop s1;
  Service.Server.wait s1;
  let s2 = make_server ~cache_dir () in
  let r2 = Service.Server.handle_request s2 (miss_req ()) in
  Alcotest.(check bool) "a fresh server over the directory hits" true
    (cached r2);
  Alcotest.(check string) "the stored payload"
    (J.to_string (get_exn [ "result" ] r1))
    (J.to_string (get_exn [ "result" ] r2));
  Service.Server.stop s2;
  rm_rf cache_dir

(* A miss takes one memory-tier entry, its result: the search's prune
   decisions live and die with its solver. *)
let test_miss_one_mem_entry =
  with_reset @@ fun () ->
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:8 () in
  let direct =
    Search.Generator.run
      ~config:(Search.Config.for_spec ~base:(small_config ()) spec)
      ~device:Gpusim.Device.a100 ~spec ()
  in
  Alcotest.(check bool) "the search decides prune queries" true
    (direct.Search.Generator.solver.Smtlite.Solver.cache_misses > 0);
  let server = make_server () in
  let r =
    Service.Server.handle_request server
      (J.Obj
         [
           ("op", J.Str "optimize");
           ("graph", Search.Checkpoint.graph_to_json spec);
         ])
  in
  Alcotest.(check bool) "miss" false (cached r);
  Service.Server.drain_writes server;
  Alcotest.(check int) "one memory-tier entry" 1
    (Service.Cache.mem_entries (Service.Server.cache server));
  Service.Server.stop server

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
  (* the miss was answered before its result was on disk *)
  Service.Server.drain_writes server;
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
  (* the registry's counters ride the snapshot *)
  let counter name =
    match get_exn [ "counters"; name ] m with J.Int i -> i | _ -> -1
  in
  (* two optimize requests and this metrics request itself *)
  Alcotest.(check int) "counters hold service.requests" 3
    (counter "service.requests");
  Alcotest.(check int) "counters hold service.searches" 1
    (counter "service.searches");
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

(* --- shared prune helper ----------------------------------------------- *)

(* One invariant: the journal records candidates, not tries, and the
   enumerators' tallies are the one record of what the search cut. Every
   completing prefix the search counts as a candidate is one
   [graph.emit], as many as the outcome's [generated]; the funnel's
   duplicates are the enumerators' duplicate rejects, which the
   [search.<level>.reject.duplicate] counters count; and every
   event is of a documented type: no [cand.expand], [cand.accept] or
   per-try [cand.reject]. The run resumes a checkpoint whose incumbent
   is the winner of the same search, so a re-run task emits a copy of
   it: the planted incumbent is verified once, when it is emitted
   before the lanes start, and its copy, whose key equals it, is not
   verified again. *)
let test_prune_single_site =
  with_reset @@ fun () ->
  let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
  let config = small_config () in
  let device = Gpusim.Device.a100 in
  let ckpt_path = Filename.temp_file "mirage_prune_ckpt" ".json" in
  let plain, planted =
    let ck = Search.Checkpoint.create ~path:ckpt_path in
    let o = Search.Generator.run ~config ~checkpoint:ck ~device ~spec () in
    match Search.Checkpoint.incumbents ck with
    | [ (0, (_, g)) ] -> (o, g)
    | _ -> Alcotest.fail "the search verified no incumbent"
  in
  let ck = Search.Checkpoint.create ~path:ckpt_path in
  Search.Checkpoint.set_incumbent ck ~piece:0 ~gid:0 planted;
  let journal_path = Filename.temp_file "mirage_prune_journal" ".jsonl" in
  ignore (Obs.Journal.enable journal_path);
  Fun.protect ~finally:(fun () ->
      Obs.Journal.disable ();
      List.iter Sys.remove [ journal_path; ckpt_path ])
  @@ fun () ->
  let o = Search.Generator.run ~config ~checkpoint:ck ~device ~spec () in
  let s = o.Search.Generator.stats in
  Obs.Journal.disable ();
  let events =
    match Obs.Journal.read_file journal_path with
    | Ok evs -> evs
    | Error m -> Alcotest.fail ("journal unreadable: " ^ m)
  in
  let count name =
    match
      List.assoc_opt name o.Search.Generator.metrics.Obs.Metrics.counters
    with
    | Some n -> n
    | None -> Alcotest.failf "no counter %s" name
  in
  let emits =
    List.filter (fun e -> Obs.Journal.typ_of e = "graph.emit") events
  in
  Alcotest.(check bool) "the search emitted candidates" true (emits <> []);
  Alcotest.(check int) "graph.emit events are the generated candidates"
    o.Search.Generator.generated (List.length emits);
  Alcotest.(check int) "graph.emit events are the stats' candidates"
    s.Search.Stats.candidates (List.length emits);
  Alcotest.(check int) "the planted incumbent and the search's copy"
    (plain.Search.Generator.generated + 1)
    (List.length emits);
  Alcotest.(check int) "the funnel's duplicates are the duplicate counters"
    s.Search.Stats.duplicates
    (count "search.kernel.reject.duplicate"
    + count "search.block.reject.duplicate");
  let first =
    List.fold_left
      (fun a e -> if Obs.Journal.seq_of e < Obs.Journal.seq_of a then e else a)
      (List.hd emits) emits
  in
  let verdicts =
    List.filter (fun e -> Obs.Journal.typ_of e = "verify.verdict") events
  in
  let equivalent =
    List.filter
      (fun e -> Obs.Jsonw.member "verdict" e = Some (Obs.Jsonw.Str "equivalent"))
      verdicts
  in
  Alcotest.(check (list int)) "the planted incumbent gets one verify.verdict"
    [ Obs.Journal.cand_of first ]
    (List.filter_map
       (fun e ->
         if Obs.Journal.cand_of e = Obs.Journal.cand_of first then
           Some (Obs.Journal.cand_of e)
         else None)
       verdicts);
  (* every candidate verified after it came before it and failed, so
     its copy (which would pass) was never verified *)
  Alcotest.(check (list int)) "only the planted incumbent verified"
    [ Obs.Journal.cand_of first ]
    (List.map Obs.Journal.cand_of equivalent);
  let documented typ =
    List.mem typ [ "graph.emit"; "cand.crash"; "verify.verdict" ]
    || List.exists
         (fun p -> String.starts_with ~prefix:p typ)
         [ "cost."; "search."; "request." ]
  in
  List.iter
    (fun e ->
      let typ = Obs.Journal.typ_of e in
      Alcotest.(check bool) (typ ^ " is a documented event type") true
        (documented typ))
    events

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
      ~device:Gpusim.Device.a100 ~base_config:(small_config ()) ~socket_path
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

(* --- hardening: admission, deadlines, crash-safe cache ------------------ *)

(* The two admission gates, exercised directly: each bound rejects
   with the right typed kind and retry hint, and releases restore
   capacity. *)
let test_admit_gates () =
  let a =
    Service.Admit.create ~registry:(Obs.Metrics.create ()) ~max_connections:2
      ~max_queue_depth:1 ~retry_after_s:0.25 ()
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
    (Service.Admit.try_queue a = Service.Admit.Admitted)

(* A client's overrides are bounded before any search: [workers] must
   lie in 1 .. Config.default_workers, and [budget_s] must be finite and
   positive (0 would switch the operator's budget off). *)
let test_bad_overrides =
  with_reset @@ fun () ->
  let server = make_server () in
  let spec = div_matmul_spec ~b:2 ~h:4 ~d:4 () in
  List.iter
    (fun (what, field) ->
      let r =
        Service.Server.handle_request server
          (J.Obj
             [
               ("op", J.Str "optimize");
               ("graph", Search.Checkpoint.graph_to_json spec);
               field;
             ])
      in
      Alcotest.(check string) (what ^ ": typed bad_request") "bad_request"
        (match J.member "error" r with Some (J.Str s) -> s | _ -> "?"))
    [
      ("workers = 0", ("workers", J.Int 0));
      ( "workers past the default",
        ("workers", J.Int (Search.Config.default_workers + 1)) );
      ("budget_s = 0", ("budget_s", J.Float 0.0));
      ("budget_s = -1", ("budget_s", J.Int (-1)));
    ];
  Alcotest.(check bool) "no search ran" true
    (get_exn [ "searches" ]
       (Service.Server.handle_request server (J.Obj [ ("op", J.Str "status") ]))
    = J.Int 0)

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

(* A coalesced follower's wait is bounded by its own deadline, however
   long the leader's search runs: the reduced RMSNorm search at eight
   block ops runs into its 0.5 s budget, the follower is answered a
   typed timeout while it goes on, and the leader, which set no
   deadline, is still answered by that one search. *)
let test_follower_deadline =
  with_reset @@ fun () ->
  let server = make_server () in
  let req extra =
    J.Obj
      ([
         ("op", J.Str "optimize");
         ("benchmark", J.Str "rmsnorm");
         ("max_block_ops", J.Int 8);
         ("budget_s", J.Float 0.5);
       ]
      @ extra)
  in
  let (leader, follower, waited), events =
    journaled (fun () ->
        let leader =
          Domain.spawn (fun () -> Service.Server.handle_request server (req []))
        in
        let t_end = Unix.gettimeofday () +. 5.0 in
        while
          Service.Server.flight_count server = 0
          && Unix.gettimeofday () < t_end
        do
          Unix.sleepf 0.001
        done;
        let t0 = Unix.gettimeofday () in
        let follower =
          Service.Server.handle_request server
            (req [ ("deadline_ms", J.Float 50.0) ])
        in
        let waited = Unix.gettimeofday () -. t0 in
        (Domain.join leader, follower, waited))
  in
  Alcotest.(check int) "the follower joined the leader's flight" 1
    (count_events events "request.coalesced");
  Alcotest.(check string) "the follower's typed timeout" "timeout"
    (match J.member "error" follower with Some (J.Str s) -> s | _ -> "?");
  Alcotest.(check bool)
    (Printf.sprintf "the follower answered in %.3f s, under 0.3 s" waited)
    true (waited < 0.3);
  Alcotest.(check string) "the leader ok" "ok" (status leader);
  Alcotest.(check int) "one search" 1 (count_events events "search.start");
  Service.Server.stop server

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
          Alcotest.test_case "each search counts on its own" `Quick
            test_search_isolation;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "N domains, one search" `Slow test_single_flight;
          Alcotest.test_case "corrupt entry re-searched" `Slow
            test_corrupt_entry_researched;
          Alcotest.test_case "search off the handler's domain" `Slow
            test_search_off_handler_domain;
          Alcotest.test_case "a join after the leader settled hits" `Quick
            test_join_after_settle;
        ] );
      ( "search slots",
        [
          Alcotest.test_case "sequential misses share one domain" `Quick
            test_slot_reused;
          Alcotest.test_case "10 misses, at most 2 domains" `Quick
            test_slots_bounded;
          Alcotest.test_case "140 servers, each stopped" `Quick
            test_many_servers;
          Alcotest.test_case "a raising search, then the next miss" `Quick
            test_raising_search;
          Alcotest.test_case "a read right after a miss hits" `Quick
            test_read_after_miss;
          Alcotest.test_case "stop/wait leaves the answer on disk" `Quick
            test_restart_reads_disk;
          Alcotest.test_case "a miss takes one memory-tier entry" `Quick
            test_miss_one_mem_entry;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "request ids minted and echoed" `Slow
            test_request_id_roundtrip;
          Alcotest.test_case "metrics op: valid snapshot, counters" `Slow
            test_metrics_op;
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
        ] );
      ( "hardening",
        [
          Alcotest.test_case "admission gates: conn, queue" `Quick
            test_admit_gates;
          Alcotest.test_case "out-of-range overrides: bad_request" `Quick
            test_bad_overrides;
          Alcotest.test_case "expired deadline: typed timeout" `Slow
            test_deadline_timeout;
          Alcotest.test_case "deadline passed mid-search: typed timeout" `Quick
            test_deadline_during_search;
          Alcotest.test_case "a follower's deadline bounds its wait" `Quick
            test_follower_deadline;
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
