(* Chaos and degradation tests for the resilient search runtime:
   supervised workers (quarantined task crashes), the unified budget
   (deadline in every phase), graceful ILP degradation, checkpoint
   codec/resume, and journal write-failure tolerance. Every test resets
   the fault table and the global degradation registry so the suites
   stay independent. *)

open Mugraph

let reset () =
  Obs.Fault.clear ();
  Obs.Budget.reset_degradations ()

let with_reset f () =
  reset ();
  Fun.protect ~finally:reset f

let prim bld p ins = Graph.Build.prim bld p ins

let div_matmul_spec ~b ~h ~d =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| b; h |] in
  let c = Graph.Build.input bld "C" [| b; 1 |] in
  let w = Graph.Build.input bld "W" [| h; d |] in
  let y = prim bld (Op.Binary Op.Div) [ x; c ] in
  let z = prim bld Op.Matmul [ y; w ] in
  Graph.Build.finish bld ~outputs:[ z ]

let small_config () =
  {
    Search.Config.default with
    Search.Config.grid_candidates = [ [| 2 |] ];
    forloop_candidates = [ [| 2 |] ];
    max_block_ops = 4;
    num_workers = 1;
    time_budget_s = 90.0;
  }

(* --- ILP degradation ----------------------------------------------------- *)

(* A chain of exactly-one groups with objectives arranged so the
   default depth-first order keeps improving: enough nodes that a tiny
   node limit cuts the solve short. *)
let hard_instance n =
  let p = Ilp.create () in
  let groups =
    List.init n (fun _ -> (Ilp.new_var p, Ilp.new_var p, Ilp.new_var p))
  in
  List.iter (fun (a, bv, c) -> Ilp.add_exactly_one p [ a; bv; c ]) groups;
  let obj =
    List.concat
      (List.mapi
         (fun i (a, bv, c) ->
           let w = float_of_int (n - i + 1) in
           [ (w, a); (w *. 0.5, bv); (w *. 0.25, c) ])
         groups)
  in
  Ilp.set_objective p obj;
  p

let test_ilp_node_limit () =
  let p = hard_instance 8 in
  let optimal =
    match Ilp.solve p with
    | Ilp.Optimal sol -> sol.Ilp.objective
    | _ -> Alcotest.fail "unlimited solve should be optimal"
  in
  match Ilp.solve ~node_limit:5 p with
  | Ilp.Optimal _ -> Alcotest.fail "5-node solve reported optimal"
  | Ilp.Feasible_incumbent sol ->
      Alcotest.(check bool) "incumbent no better than optimal" true
        (sol.Ilp.objective >= optimal -. 1e-9)
  | Ilp.Node_limit -> ()
  | Ilp.Infeasible -> Alcotest.fail "feasible problem reported infeasible"

let test_ilp_deadline () =
  let p = hard_instance 10 in
  let budget = Obs.Budget.create ~time_budget_s:1e-9 () in
  ignore (Unix.select [] [] [] 0.001);
  (match Ilp.solve ~budget p with
  | Ilp.Optimal _ -> Alcotest.fail "expired budget still reached optimality"
  | Ilp.Feasible_incumbent _ | Ilp.Node_limit -> ()
  | Ilp.Infeasible -> Alcotest.fail "reported infeasible");
  Alcotest.(check bool) "deadline noted" true
    (List.mem "ilp.deadline" (Obs.Budget.reasons budget))

let test_layout_fallback () =
  let b =
    match Workloads.Bench_defs.by_name "rmsnorm" with
    | Some b -> b
    | None -> Alcotest.fail "rmsnorm benchmark missing"
  in
  let g = b.Workloads.Bench_defs.mirage in
  let full = Opt.Layout_opt.optimize g in
  let degraded = Opt.Layout_opt.optimize ~node_limit:1 g in
  Alcotest.(check int) "same number of kernels" (List.length full)
    (List.length degraded);
  List.iter
    (fun (_, (a : Opt.Layout_opt.assignment)) ->
      (match a.Opt.Layout_opt.source with
      | Opt.Layout_opt.Ilp_optimal ->
          Alcotest.fail "1-node solve cannot be optimal"
      | Opt.Layout_opt.Ilp_incumbent | Opt.Layout_opt.Greedy -> ());
      Alcotest.(check bool) "cost finite" true
        (Float.is_finite a.Opt.Layout_opt.cost);
      Alcotest.(check bool) "every node assigned" true
        (a.Opt.Layout_opt.layouts <> []))
    degraded

(* --- fault spec parsing --------------------------------------------------- *)

let test_fault_parse () =
  let ok s = Alcotest.(check bool) s true (Result.is_ok (Obs.Fault.parse s)) in
  let bad s =
    Alcotest.(check bool) s true (Result.is_error (Obs.Fault.parse s))
  in
  ok "enum.block:1.0";
  ok "enum.block:0.5:3";
  ok "enum.block:1.0:2,verify:0.25";
  ok "journal.write:0.0";
  ok "";
  (* empty spec = disarm everything *)
  bad "enum.block";
  bad "enum.block:nan";
  bad "enum.block:2.0";
  bad "enum.block:-0.5";
  bad "enum.block:1.0:0";
  bad "enum.block:1.0:x";
  bad ":1.0"

(* --- supervised workers --------------------------------------------------- *)

(* A crash at either level's fault probe is quarantined: the block
   level's and the kernel level's, both raised from the one prefix
   engine. *)
let test_enumerator_crash_quarantined =
  with_reset @@ fun () ->
  List.iter
    (fun fault ->
      reset ();
      (match Obs.Fault.configure fault with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
      let o =
        Search.Generator.run ~config:(small_config ())
          ~device:Gpusim.Device.a100 ~spec ()
      in
      Alcotest.(check bool) (fault ^ ": at least one task crashed") true
        (o.Search.Generator.task_failures >= 1);
      Alcotest.(check bool) (fault ^ ": crash recorded in degradations") true
        (List.mem "worker.crash" o.Search.Generator.degraded);
      Alcotest.(check bool) (fault ^ ": funnel invariant survives the crash")
        true
        (Search.Stats.funnel_ok o.Search.Generator.stats);
      (* best-so-far still returned: the spec always participates *)
      Alcotest.(check bool) (fault ^ ": best exists") true
        (o.Search.Generator.best <> None))
    [ "enum.block:1.0:1"; "enum.kernel:1.0:1" ]

let test_crash_storm_aborts =
  with_reset @@ fun () ->
  (* every block task crashes; past max_task_failures the search aborts
     but still returns an outcome *)
  (match Obs.Fault.configure "enum.block:1.0" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let cfg = { (small_config ()) with Search.Config.max_task_failures = 2 } in
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let o =
    Search.Generator.run ~config:cfg ~device:Gpusim.Device.a100 ~spec ()
  in
  Alcotest.(check bool) "abort recorded" true
    (List.mem "worker.abort" o.Search.Generator.degraded);
  Alcotest.(check bool) "crashes capped near the limit" true
    (o.Search.Generator.task_failures >= 3);
  Alcotest.(check bool) "best exists" true (o.Search.Generator.best <> None)

let test_verifier_crash_quarantined =
  with_reset @@ fun () ->
  (* the verifier probe fires on every call: all candidates are rejected
     via the quarantine, so only the spec survives *)
  (match Obs.Fault.configure "verify:1.0" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let o =
    Search.Generator.run ~config:(small_config ()) ~device:Gpusim.Device.a100
      ~spec ()
  in
  Alcotest.(check bool) "verify crash recorded" true
    (List.mem "verify.crash" o.Search.Generator.degraded);
  match o.Search.Generator.best with
  | Some r -> Alcotest.(check bool) "spec wins" true (Graph.equal r.graph spec)
  | None -> Alcotest.fail "no best"

(* --- deadline ladder ------------------------------------------------------ *)

let test_deadline_returns_best_so_far =
  with_reset @@ fun () ->
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let budget = Obs.Budget.create ~time_budget_s:1e-9 () in
  ignore (Unix.select [] [] [] 0.001);
  let o =
    Search.Generator.run ~config:(small_config ()) ~budget
      ~device:Gpusim.Device.a100 ~spec ()
  in
  Alcotest.(check bool) "deadline recorded" true
    (List.mem "deadline" o.Search.Generator.degraded);
  Alcotest.(check bool) "budget exhausted" true
    o.Search.Generator.budget_exhausted;
  match o.Search.Generator.best with
  | Some r ->
      Alcotest.(check bool) "best-so-far is the spec" true
        (Graph.equal r.graph spec)
  | None -> Alcotest.fail "no best under expired deadline"

(* --- checkpoint codec and resume ------------------------------------------ *)

let test_codec_roundtrip () =
  let graphs =
    div_matmul_spec ~b:4 ~h:8 ~d:16
    ::
    (match Workloads.Bench_defs.by_name "rmsnorm" with
    | Some b ->
        [ b.Workloads.Bench_defs.spec; b.Workloads.Bench_defs.mirage ]
    | None -> [])
  in
  List.iter
    (fun g ->
      let j = Search.Checkpoint.graph_to_json g in
      (* through the actual serializer, not just the value tree *)
      let s = Obs.Jsonw.to_string j in
      match Obs.Jsonw.of_string s with
      | Error m -> Alcotest.fail m
      | Ok j' -> (
          match Search.Checkpoint.graph_of_json j' with
          | Ok g' ->
              Alcotest.(check bool) "roundtrip preserves the graph" true
                (Graph.equal g g')
          | Error m -> Alcotest.fail m))
    graphs

let test_codec_rejects_garbage () =
  (match Search.Checkpoint.graph_of_json (Obs.Jsonw.Str "nope") with
  | Ok _ -> Alcotest.fail "accepted a string"
  | Error _ -> ());
  match
    Search.Checkpoint.graph_of_json
      (Obs.Jsonw.Obj [ ("knodes", Obs.Jsonw.List []) ])
  with
  | Ok _ -> Alcotest.fail "accepted an outputless graph"
  | Error _ -> ()

let best (o : Search.Generator.outcome) =
  match o.Search.Generator.best with
  | Some r -> r
  | None -> Alcotest.fail "no best"

(* The resumed winner is the uninterrupted one: same graph, not just the
   same cost. *)
let check_same_winner msg (o0 : Search.Generator.outcome) o2 =
  let r0 = best o0 and r2 = best o2 in
  Alcotest.(check (float 1e-9))
    msg r0.Search.Generator.cost.Gpusim.Cost.total_us
    r2.Search.Generator.cost.Gpusim.Cost.total_us;
  Alcotest.(check bool) (msg ^ ": same graph") true
    (Graph.equal r0.Search.Generator.graph r2.Search.Generator.graph)

let test_resume_reaches_same_best =
  with_reset @@ fun () ->
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg = small_config () in
  let device = Gpusim.Device.a100 in
  let uninterrupted = Search.Generator.run ~config:cfg ~device ~spec () in
  let dir = Filename.temp_file "mirage_ckpt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "checkpoint.json" in
  (* phase 1: interrupt early via a tiny node budget *)
  let ck = Search.Checkpoint.create ~path in
  let tiny = Obs.Budget.create ~node_budget:40 () in
  let o1 =
    Search.Generator.run ~config:cfg ~budget:tiny ~checkpoint:ck ~device ~spec
      ()
  in
  Alcotest.(check bool) "phase 1 was cut short" true
    o1.Search.Generator.budget_exhausted;
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
  (* phase 2: reload and finish with an unconstrained budget *)
  let ck2 =
    match Search.Checkpoint.load path with
    | Ok ck -> ck
    | Error m -> Alcotest.fail m
  in
  let o2 =
    Search.Generator.run ~config:cfg
      ~budget:(Obs.Budget.unlimited ())
      ~checkpoint:ck2 ~device ~spec ()
  in
  check_same_winner "resume reaches the uninterrupted best" uninterrupted o2;
  Alcotest.(check bool) "resumed run emitted candidates" true
    (o2.Search.Generator.generated > 0);
  (* phase 3: every task is done, so the run only re-emits and
     re-verifies the incumbent; the stats count it as the outcome does *)
  let o3 =
    Search.Generator.run ~config:cfg
      ~budget:(Obs.Budget.unlimited ())
      ~checkpoint:ck2 ~device ~spec ()
  in
  check_same_winner "a finished checkpoint keeps its winner" uninterrupted o3;
  let s3 = o3.Search.Generator.stats in
  Alcotest.(check (list int)) "generated, candidates, verified, expanded"
    [ 1; 1; 1; 1 ]
    [
      o3.Search.Generator.generated;
      s3.Search.Stats.candidates;
      s3.Search.Stats.verified;
      s3.Search.Stats.expanded;
    ];
  Alcotest.(check bool) "funnel holds" true (Search.Stats.funnel_ok s3)

(* Same invariant at mid-subtree granularity: with several domains and a
   spawn cutoff of 1, hungry workers take subtree continuations, so an
   interrupt can land while some partially-drained tasks are still in
   flight. Lanes start their helpers only once a search has run past
   [Generator.helper_after_s], so phase 1 runs ~100 k tries (tens of
   ms) before its node budget cuts it, with every lane holding a task.
   Only cleanly-drained tasks may advance the resume cursor, so the
   resumed run must still reach the uninterrupted best. *)
let test_resume_mid_subtree =
  with_reset @@ fun () ->
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg =
    {
      (small_config ()) with
      Search.Config.num_workers = 4;
      steal_depth_cutoff = 1;
    }
  in
  let device = Gpusim.Device.a100 in
  let counter (o : Search.Generator.outcome) name =
    List.assoc name o.Search.Generator.metrics.Obs.Metrics.counters
  in
  let o0 = Search.Generator.run ~config:cfg ~device ~spec () in
  Alcotest.(check bool) "helpers took work" true
    (counter o0 "search.steal.count" > 0);
  let dir = Filename.temp_file "mirage_ckpt_sub" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "checkpoint.json" in
  let ck = Search.Checkpoint.create ~path in
  let cut = Obs.Budget.create ~node_budget:100_000 () in
  let o1 =
    Search.Generator.run ~config:cfg ~budget:cut ~checkpoint:ck ~device ~spec
      ()
  in
  Alcotest.(check bool) "phase 1 was cut short" true
    o1.Search.Generator.budget_exhausted;
  Alcotest.(check int) "phase 1 ran on every lane" 3
    (counter o1 "search.lanes.started");
  let ck2 =
    match Search.Checkpoint.load path with
    | Ok ck -> ck
    | Error m -> Alcotest.fail m
  in
  let o2 =
    Search.Generator.run ~config:cfg
      ~budget:(Obs.Budget.unlimited ())
      ~checkpoint:ck2 ~device ~spec ()
  in
  check_same_winner "mid-subtree resume reaches the same best" o0 o2

let test_checkpoint_load_errors () =
  (match Search.Checkpoint.load "/nonexistent/checkpoint.json" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ());
  let f = Filename.temp_file "mirage_ckpt" ".json" in
  let oc = open_out f in
  output_string oc "{\"schema\":\"something.else\"}";
  close_out oc;
  (match Search.Checkpoint.load f with
  | Ok _ -> Alcotest.fail "loaded a foreign schema"
  | Error _ -> ());
  Sys.remove f

(* A budget-cut run leaves, per piece, its cursor and at most one graph:
   the verified incumbent, which is equivalent to its piece. Two pieces
   share one checkpoint, as in [Mirage.superoptimize]. *)
let test_checkpoint_holds_incumbents =
  with_reset @@ fun () ->
  let specs =
    [ div_matmul_spec ~b:4 ~h:8 ~d:16; div_matmul_spec ~b:2 ~h:8 ~d:8 ]
  in
  let cfg = small_config () in
  let device = Gpusim.Device.a100 in
  let path = Filename.temp_file "mirage_ckpt_inc" ".json" in
  let ck = Search.Checkpoint.create ~path in
  List.iteri
    (fun piece spec ->
      let cut = Obs.Budget.create ~node_budget:2_500_000 () in
      let o =
        Search.Generator.run ~config:cfg ~budget:cut ~checkpoint:ck ~piece
          ~device ~spec ()
      in
      Alcotest.(check bool) "run was cut short" true
        o.Search.Generator.budget_exhausted)
    specs;
  let rec graphs = function
    | Obs.Jsonw.Obj kvs ->
        (if List.mem_assoc "knodes" kvs then 1 else 0)
        + List.fold_left (fun n (_, v) -> n + graphs v) 0 kvs
    | Obs.Jsonw.List l -> List.fold_left (fun n v -> n + graphs v) 0 l
    | _ -> 0
  in
  (match
     Obs.Jsonw.of_string (In_channel.with_open_bin path In_channel.input_all)
   with
  | Ok j -> (
      match Obs.Jsonw.member "pieces" j with
      | Some (Obs.Jsonw.List ps) ->
          Alcotest.(check int) "one entry per piece" 2 (List.length ps);
          List.iter
            (fun p ->
              Alcotest.(check bool) "no candidate list" true
                (Obs.Jsonw.member "candidates" p = None);
              Alcotest.(check bool) "at most one graph per piece" true
                (graphs p <= 1))
            ps
      | _ -> Alcotest.fail "checkpoint has no pieces")
  | Error m -> Alcotest.fail m);
  (match Search.Checkpoint.load path with
  | Error m -> Alcotest.fail m
  | Ok ck2 ->
      let incs = Search.Checkpoint.incumbents ck2 in
      Alcotest.(check (list int)) "both pieces hold an incumbent" [ 0; 1 ]
        (List.map fst incs);
      List.iter
        (fun (piece, (_, g)) ->
          Alcotest.(check bool)
            (Printf.sprintf "piece %d: incumbent is equivalent" piece)
            true
            (Verify.Random_test.equivalent ~trials:3
               ~spec:(List.nth specs piece) g
            = Verify.Random_test.Equivalent))
        incs;
      (* Resuming from it reaches the uninterrupted winner, also where
         the task that found the incumbent is done and not re-run. *)
      List.iteri
        (fun piece spec ->
          check_same_winner
            (Printf.sprintf "piece %d: resume reaches the same winner" piece)
            (Search.Generator.run ~config:cfg ~device ~spec ())
            (Search.Generator.run ~config:cfg
               ~budget:(Obs.Budget.unlimited ())
               ~checkpoint:ck2 ~piece ~device ~spec ()))
        specs);
  Sys.remove path

(* A checkpoint is a file on disk, so its incumbent is verified again on
   resume: a planted graph cheaper than the real winner but not
   equivalent to the spec (it drops the division) must not win. *)
let test_planted_incumbent_reverified =
  with_reset @@ fun () ->
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let planted =
    let bld = Graph.Build.create () in
    let x = Graph.Build.input bld "X" [| 4; 8 |] in
    let _c = Graph.Build.input bld "C" [| 4; 1 |] in
    let w = Graph.Build.input bld "W" [| 8; 16 |] in
    Graph.Build.finish bld ~outputs:[ prim bld Op.Matmul [ x; w ] ]
  in
  let cfg = small_config () in
  let device = Gpusim.Device.a100 in
  let o0 = Search.Generator.run ~config:cfg ~device ~spec () in
  Alcotest.(check bool) "the planted graph is cheaper than the winner" true
    (Gpusim.Cost.total_us device planted
    < (best o0).Search.Generator.cost.Gpusim.Cost.total_us);
  let path = Filename.temp_file "mirage_ckpt_planted" ".json" in
  let ck = Search.Checkpoint.create ~path in
  Search.Checkpoint.set_incumbent ck ~piece:0 ~gid:1 planted;
  Search.Checkpoint.save ck;
  let ck2 =
    match Search.Checkpoint.load path with
    | Ok ck -> ck
    | Error m -> Alcotest.fail m
  in
  check_same_winner "the planted incumbent is refused" o0
    (Search.Generator.run ~config:cfg ~checkpoint:ck2 ~device ~spec ());
  Sys.remove path

(* A v1 checkpoint's task indices named single roots, a v2 one's task
   list still held the levels the goal-distance cut now skips, and a v3
   one held every unverified candidate. Each must be refused, not
   resumed into skipping the wrong tasks or trusting an unverified
   graph. *)
let test_checkpoint_v1_refused () =
  let path = Filename.temp_file "mirage_ckpt_v1" ".json" in
  let ck = Search.Checkpoint.create ~path in
  Search.Checkpoint.task_done ck ~piece:0 ~task:1;
  (match Search.Checkpoint.load path with
  | Ok ck ->
      Alcotest.(check (list int)) "v4 loads" [ 1 ]
        (Search.Checkpoint.completed ck ~piece:0)
  | Error m -> Alcotest.fail m);
  let saved = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun old ->
      (* the same file under an older schema marker *)
      (match Obs.Jsonw.of_string saved with
      | Ok (Obs.Jsonw.Obj kvs) ->
          Obs.Jsonw.to_file path
            (Obs.Jsonw.Obj
               (List.map
                  (fun (k, v) ->
                    if k = "schema" then (k, Obs.Jsonw.Str old) else (k, v))
                  kvs))
      | _ -> Alcotest.fail "checkpoint is not a JSON object");
      match Search.Checkpoint.load path with
      | Ok _ -> Alcotest.failf "loaded a %s checkpoint" old
      | Error m ->
          Alcotest.(check bool) (old ^ ": not a v4 file") true
            (Astring_contains.contains m "not a mirage.checkpoint.v4 file"))
    [ "mirage.checkpoint.v1"; "mirage.checkpoint.v2"; "mirage.checkpoint.v3" ];
  Sys.remove path

let test_fingerprint_ignores_budget () =
  let cfg = small_config () in
  let fp c = Search.Checkpoint.config_fingerprint (Search.Config.to_json c) in
  Alcotest.(check string) "bigger budget, same search" (fp cfg)
    (fp { cfg with Search.Config.time_budget_s = 9999.0; num_workers = 8 });
  Alcotest.(check bool) "different search differs" true
    (fp cfg <> fp { cfg with Search.Config.max_block_ops = 9 })

(* --- journal write faults ------------------------------------------------- *)

let test_journal_write_fault =
  with_reset @@ fun () ->
  let path = Filename.temp_file "mirage_journal" ".jsonl" in
  (match Obs.Fault.configure "journal.write:1.0:1" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let j = Obs.Journal.enable path in
  for i = 0 to 63 do
    Obs.Journal.emit j ~typ:"test.event" [ ("i", Obs.Jsonw.Int i) ]
  done;
  Obs.Journal.disable ();
  Alcotest.(check int) "exactly the faulted event dropped" 1
    (Obs.Journal.dropped j);
  Alcotest.(check bool) "drop degraded the run" true
    (List.mem "journal.write" (Obs.Budget.degradations ()));
  (match Obs.Journal.read_file path with
  | Ok events ->
      Alcotest.(check int) "the other 63 lines all parse, none torn" 63
        (List.length events)
  | Error m -> Alcotest.fail ("journal unreadable after fault: " ^ m));
  Sys.remove path

let () =
  Alcotest.run "resilience"
    [
      ( "ilp",
        [
          Alcotest.test_case "node limit yields incumbent" `Quick
            test_ilp_node_limit;
          Alcotest.test_case "deadline cuts the solve" `Quick test_ilp_deadline;
          Alcotest.test_case "layout falls back, stays valid" `Quick
            test_layout_fallback;
        ] );
      ( "fault",
        [
          Alcotest.test_case "spec parsing" `Quick test_fault_parse;
          Alcotest.test_case "enumerator crash quarantined" `Quick
            test_enumerator_crash_quarantined;
          Alcotest.test_case "crash storm aborts past limit" `Quick
            test_crash_storm_aborts;
          Alcotest.test_case "verifier crash quarantined" `Quick
            test_verifier_crash_quarantined;
          Alcotest.test_case "journal write fault tolerated" `Quick
            test_journal_write_fault;
        ] );
      ( "budget",
        [
          Alcotest.test_case "deadline returns best-so-far" `Quick
            test_deadline_returns_best_so_far;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "codec rejects garbage" `Quick
            test_codec_rejects_garbage;
          Alcotest.test_case "resume reaches same best" `Quick
            test_resume_reaches_same_best;
          Alcotest.test_case "resume mid-subtree reaches same best" `Quick
            test_resume_mid_subtree;
          Alcotest.test_case "load errors" `Quick test_checkpoint_load_errors;
          Alcotest.test_case "v1 checkpoint refused" `Quick
            test_checkpoint_v1_refused;
          Alcotest.test_case "one verified incumbent per piece" `Quick
            test_checkpoint_holds_incumbents;
          Alcotest.test_case "a planted incumbent is verified again" `Quick
            test_planted_incumbent_reverified;
          Alcotest.test_case "fingerprint ignores budget fields" `Quick
            test_fingerprint_ignores_budget;
        ] );
    ]
