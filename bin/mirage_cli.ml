(* Command-line interface to the Mirage reproduction.

   Subcommands:
     optimize  — superoptimize a named benchmark's specification
     stats     — run the search and print the full search funnel
     verify    — check a benchmark's Mirage plan against its spec
     inspect   — print a benchmark's plans, costs, and generated CUDA
     bench     — quick cost comparison across systems and devices
     list      — list available benchmarks *)

open Cmdliner

let device_conv =
  let parse s =
    match Gpusim.Device.by_name s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown device %S (a100|h100)" s))
  in
  Arg.conv (parse, fun fmt d -> Format.fprintf fmt "%s" d.Gpusim.Device.name)

let device_arg =
  Arg.(
    value
    & opt device_conv Gpusim.Device.a100
    & info [ "device"; "d" ] ~docv:"DEV" ~doc:"Target GPU model (a100 or h100).")

let bench_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK"
        ~doc:"Benchmark name: gqa, qknorm, rmsnorm, lora, gatedmlp, ntrans.")

let lookup name =
  match Workloads.Bench_defs.by_name name with
  | Some b -> b
  | None ->
      Printf.eprintf "unknown benchmark %S\n" name;
      exit 2

let list_cmd =
  let run () =
    List.iter
      (fun (b : Workloads.Bench_defs.benchmark) ->
        Printf.printf "%-10s %-32s (%s)\n" b.name b.description b.base_arch)
      (Workloads.Bench_defs.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List available benchmarks")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Runnable backend: compile a winning muGraph with the system C
   compiler and execute it against the muGraph interpreter.            *)

let differential_arg =
  Arg.(
    value & flag
    & info [ "differential" ]
        ~doc:
          "Post-pass on the winning muGraph: lower it to the imperative IR, \
           compile the generated C with the system compiler, execute it on \
           random inputs through the subprocess harness, and compare every \
           output scalar against the muGraph interpreter (tolerance 1e-4). \
           Skipped with a notice when no C compiler is available; exits \
           nonzero on divergence.")

(* [Some ok] when the check ran, [None] when skipped (no C compiler). *)
let differential_post ?report_dir ~label g =
  if not (Codegen.C_exec.cc_available ()) then begin
    Printf.printf
      "differential %s: SKIPPED (no working C compiler on PATH)\n%!" label;
    None
  end
  else
    match Codegen.Differential.check ?report_dir ~name:label g with
    | Error e ->
        Printf.printf "differential %s: ERROR %s\n%!" label e;
        Some false
    | Ok o ->
        Printf.printf "differential: %s\n%!"
          (Codegen.Differential.pp_outcome o);
        Some o.Codegen.Differential.ok

let verify_cmd =
  let run name differential =
    let b = lookup name in
    let spec, plan = b.Workloads.Bench_defs.reduced () in
    Printf.printf "verifying %s Mirage plan against its specification\n"
      b.Workloads.Bench_defs.name;
    let r = Verify.Random_test.equivalent ~trials:3 ~spec plan in
    Printf.printf "result: %s\n" (Verify.Random_test.to_string r);
    (match r with Verify.Random_test.Equivalent -> () | _ -> exit 1);
    if differential then
      match
        differential_post
          ~label:(String.lowercase_ascii b.Workloads.Bench_defs.name)
          plan
      with
      | Some false -> exit 1
      | Some true | None -> ()
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Probabilistically verify a benchmark's Mirage plan (reduced dims)")
    Term.(const run $ bench_arg $ differential_arg)

let inspect_cmd =
  let run name device =
    let b = lookup name in
    let cost g = (Gpusim.Cost.cost device g).Gpusim.Cost.total_us in
    Printf.printf "== %s (%s) on %s\n" b.Workloads.Bench_defs.name
      b.Workloads.Bench_defs.base_arch device.Gpusim.Device.name;
    Printf.printf "-- specification:\n%s\n"
      (Mugraph.Pretty.kernel_graph_to_string b.Workloads.Bench_defs.spec);
    Printf.printf "-- Mirage muGraph (%.2f us):\n%s\n"
      (cost b.Workloads.Bench_defs.mirage)
      (Mugraph.Pretty.kernel_graph_to_string b.Workloads.Bench_defs.mirage);
    Printf.printf "-- optimizer report:\n%s\n"
      (Opt.Optimizer.summary
         (Opt.Optimizer.optimize device b.Workloads.Bench_defs.mirage));
    Printf.printf "-- generated C:\n%s\n"
      (Codegen.C_emit.emit
         (Impir.Lower.lower
            ~name:(String.lowercase_ascii b.Workloads.Bench_defs.name)
            b.Workloads.Bench_defs.mirage))
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Print plans, costs and generated code")
    Term.(const run $ bench_arg $ device_arg)

let bench_cmd =
  let run device =
    List.iter
      (fun (b : Workloads.Bench_defs.benchmark) ->
        let cost g = (Gpusim.Cost.cost device g).Gpusim.Cost.total_us in
        let mi = cost b.mirage in
        Printf.printf "%-10s Mirage (template) %8.2f us |" b.name mi;
        List.iter
          (fun (n, g) -> Printf.printf " %s %.2f (%.2fx)" n (cost g) (cost g /. mi))
          b.systems;
        print_newline ())
      (Workloads.Bench_defs.all ())
  in
  Cmd.v (Cmd.info "bench" ~doc:"Cost all benchmarks on a device")
    Term.(const run $ device_arg)

(* Shared observability flags: [--trace FILE] profiles the run with a
   timeline, writes it as Chrome trace-event JSON and prints the phase
   table; [--metrics] dumps the merged metrics registry. Both default to
   off, leaving the plain output untouched. *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Profile the run's phases, write each phase span as Chrome \
           trace-event JSON to $(docv) (load in chrome://tracing or \
           Perfetto) and print the phase table.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the merged metrics registry after the run.")

let write_trace prof file =
  Obs.Jsonw.to_file file (Obs.Profile.to_chrome_json prof)

let with_tracing trace f =
  match trace with
  | None -> f ()
  | Some file ->
      let prof = Obs.Profile.enable ~timeline:true () in
      Fun.protect
        ~finally:(fun () ->
          Obs.Profile.disable ();
          write_trace prof file;
          let kept, dropped = Obs.Profile.timeline_counts prof in
          Printf.printf "== trace: %d spans, %d dropped past the cap -> %s\n"
            kept dropped file;
          match
            Obs.Profile.render
              (Obs.Profile.snapshot_json (Obs.Profile.snapshot prof))
          with
          | Ok table -> print_string table
          | Error _ -> ())
        f

(* [--report DIR]: a self-contained run directory — report.json,
   trace.json and journal.jsonl. The profiler (with its timeline) and
   the event journal are force-enabled for the run, and every finalizer
   is individually exception-protected so a crashed search still leaves
   its forensics behind (with status.state = "crashed" and the error
   recorded). *)

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"DIR"
        ~doc:
          "Write a self-contained run report to $(docv): report.json (config \
           fingerprint, environment, search funnel, costs, phase table), \
           trace.json (the phase spans as Chrome trace events) and \
           journal.jsonl (the search flight record: each emitted \
           candidate's verdict and cost; tries are only counted, in the \
           funnel).")

let with_artifacts ~kind trace report_dir f =
  match report_dir with
  | None -> with_tracing trace (fun () -> f None)
  | Some dir ->
      Obs.Budget.reset_degradations ();
      let rep =
        match Obs.Report.create ~dir with
        | Ok rep -> rep
        | Error msg ->
            Printf.eprintf "--report: %s\n" msg;
            exit 2
      in
      Obs.Report.add rep "kind" (Obs.Jsonw.Str kind);
      Obs.Report.add rep "env" (Obs.Report.env_json ());
      ignore (Obs.Journal.enable (Filename.concat dir "journal.jsonl"));
      let prof = Obs.Profile.enable ~timeline:true () in
      let t0 = Unix.gettimeofday () in
      let finalize status err =
        let attempt g = try g () with _ -> () in
        attempt (fun () ->
            Obs.Report.add rep "profile"
              (Obs.Profile.snapshot_json (Obs.Profile.snapshot prof)));
        attempt (fun () -> Obs.Profile.disable ());
        (* journal loss accounting must be read before disable closes it *)
        let jdropped =
          match Obs.Journal.active () with
          | Some j -> Obs.Journal.dropped j
          | None -> 0
        in
        attempt (fun () -> Obs.Journal.disable ());
        attempt (fun () -> write_trace prof (Filename.concat dir "trace.json"));
        (match trace with
        | Some file -> attempt (fun () -> write_trace prof file)
        | None -> ());
        Obs.Report.add rep "timing"
          (Obs.Jsonw.Obj
             [ ("wall_s", Obs.Jsonw.Float (Unix.gettimeofday () -. t0)) ]);
        Obs.Report.add rep "artifacts"
          (Obs.Jsonw.Obj
             [
               ("report", Obs.Jsonw.Str "report.json");
               ("trace", Obs.Jsonw.Str "trace.json");
               ("journal", Obs.Jsonw.Str "journal.jsonl");
             ]);
        (* A run that hit its deadline, lost an ILP solve to the node
           limit, or quarantined a crashed task is "degraded", not "ok":
           the artifacts are valid but some phase fell back. *)
        let degraded = Obs.Budget.degradations () in
        let state =
          if status = "ok" && degraded <> [] then "degraded" else status
        in
        Obs.Report.add rep "status"
          (Obs.Jsonw.Obj
             ([ ("state", Obs.Jsonw.Str state) ]
             @ (if degraded = [] then []
                else
                  [
                    ( "degraded",
                      Obs.Jsonw.List
                        (List.map (fun s -> Obs.Jsonw.Str s) degraded) );
                  ])
             @ (match Obs.Fault.fired () with
               | [] -> []
               | fs ->
                   [
                     ( "faults",
                       Obs.Jsonw.Obj
                         (List.map (fun (k, n) -> (k, Obs.Jsonw.Int n)) fs) );
                   ])
             @ (if jdropped = 0 then []
                else
                  [
                    ( "journal",
                      Obs.Jsonw.Obj
                        [ ("dropped_events", Obs.Jsonw.Int jdropped) ] );
                  ])
             @ if err = "" then [] else [ ("error", Obs.Jsonw.Str err) ]));
        attempt (fun () -> Obs.Report.write rep);
        Printf.eprintf "== run report: %s\n%!" (Obs.Report.path rep)
      in
      (match f (Some rep) with
      | () -> finalize "ok" ""
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finalize "crashed" (Printexc.to_string e);
          Printexc.raise_with_backtrace e bt)

let funnel_json (s : Search.Stats.snapshot) =
  let open Search.Stats in
  Obs.Jsonw.Obj
    [
      ("expanded", Obs.Jsonw.Int s.expanded);
      ("shape_rejected", Obs.Jsonw.Int s.shape_rejected);
      ("memory_rejected", Obs.Jsonw.Int s.memory_rejected);
      ("pruned_abstract", Obs.Jsonw.Int s.pruned_abstract);
      ("canonical_rejected", Obs.Jsonw.Int s.canonical_rejected);
      ("candidates", Obs.Jsonw.Int s.candidates);
      ("verified", Obs.Jsonw.Int s.verified);
      ("duplicates", Obs.Jsonw.Int s.duplicates);
      ("elapsed_s", Obs.Jsonw.Float s.elapsed_s);
    ]

let solver_json (sv : Smtlite.Solver.stats) =
  Obs.Jsonw.Obj
    [
      ("queries", Obs.Jsonw.Int sv.Smtlite.Solver.queries);
      ("cache_hits", Obs.Jsonw.Int sv.Smtlite.Solver.cache_hits);
      ("accepted", Obs.Jsonw.Int sv.Smtlite.Solver.accepted);
      ("solve_time_s", Obs.Jsonw.Float sv.Smtlite.Solver.solve_time_s);
    ]

(* The process-wide registry holds the verifier's counters and trial
   Hdr; per-search registries hold the enumerators' per-level counters,
   from which the funnel is derived. Merge them for one report. *)
let merged_metrics piece_snaps =
  Obs.Metrics.merge
    (piece_snaps @ [ Obs.Metrics.snapshot (Obs.Metrics.default ()) ])

let ops_arg =
  Arg.(
    value & opt int 8
    & info [ "max-block-ops" ] ~docv:"N"
        ~doc:"Maximum operators per block graph during the search.")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers"; "j" ] ~docv:"N"
        ~doc:
          "Search worker domains. Defaults to the runtime's recommended \
           domain count for this machine, capped at 8.")

(* [--workers] unset → size the pool to the machine (the resolved value
   lands in report.json via the config section and a "workers" field). *)
let resolve_workers = function
  | Some w -> max 1 w
  | None -> Search.Config.default_workers

let budget_arg =
  Arg.(
    value & opt float 120.0
    & info [ "budget" ] ~docv:"SECONDS" ~doc:"Search time budget.")

let search_config ~max_ops ~workers ~budget spec =
  let base =
    {
      Search.Config.default with
      Search.Config.max_block_ops = max_ops;
      num_workers = resolve_workers workers;
      time_budget_s = budget;
    }
  in
  Search.Config.for_spec ~base spec

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"RUN_DIR"
        ~doc:
          "Resume an interrupted search from $(docv)/checkpoint.json \
           (written by a previous --report run). Completed enumeration \
           tasks are skipped and the verified incumbent is checked again; \
           the benchmark and search options must match the original run. \
           Implies --report $(docv) unless --report is given.")

let optimize_cmd =
  let run name device max_ops workers budget trace metrics
      report_dir resume differential =
    let b = lookup name in
    (* Superoptimize the reduced-dimension specification: the search is
       exhaustive and the discovered structure is dimension-uniform. *)
    let spec, _ = b.Workloads.Bench_defs.reduced () in
    let config =
      search_config ~max_ops ~workers ~budget spec
    in
    let fingerprint =
      Search.Checkpoint.config_fingerprint (Search.Config.to_json config)
    in
    let report_dir, checkpoint =
      match resume with
      | Some dir -> (
          match Search.Checkpoint.load dir with
          | Error msg ->
              Printf.eprintf "resume: %s\n" msg;
              exit 2
          | Ok ck ->
              (match Search.Checkpoint.meta ck "benchmark" with
              | Some (Obs.Jsonw.Str n) when n <> name ->
                  Printf.eprintf
                    "resume: checkpoint is for benchmark %S, not %S\n" n name;
                  exit 2
              | _ -> ());
              (match Search.Checkpoint.meta ck "config" with
              | Some (Obs.Jsonw.Str f) when f <> fingerprint ->
                  Printf.eprintf
                    "resume: search config differs from the checkpointed run \
                     (fingerprint %s vs %s); rerun with the original \
                     --max-block-ops/--device options\n"
                    fingerprint f;
                  exit 2
              | _ -> ());
              let rdir =
                match report_dir with
                | Some d -> d
                | None ->
                    if Sys.file_exists dir && Sys.is_directory dir then dir
                    else Filename.dirname dir
              in
              (Some rdir, Some ck))
      | None -> (
          match report_dir with
          | None -> (None, None)
          | Some dir ->
              let ck =
                Search.Checkpoint.create
                  ~path:(Filename.concat dir "checkpoint.json")
              in
              Search.Checkpoint.set_meta ck
                [
                  ("benchmark", Obs.Jsonw.Str name);
                  ("config", Obs.Jsonw.Str fingerprint);
                ];
              (Some dir, Some ck))
    in
    with_artifacts ~kind:"optimize" trace report_dir @@ fun rep ->
    (* One budget for the whole invocation: the same deadline is polled
       by the enumerators, the ILP layout solver and the memory
       planner. *)
    let budget_t = Search.Budget.of_config config in
    let report =
      Mirage.superoptimize ~config ~budget:budget_t ?checkpoint ~device spec
    in
    print_string (Mirage.summary report);
    (match Obs.Budget.degradations () with
    | [] -> ()
    | ds -> Printf.printf "degraded: %s\n" (String.concat ", " ds));
    List.iter
      (fun (pr : Mirage.piece_result) ->
        match pr.Mirage.outcome with
        | Some o ->
            Printf.printf "piece %d search: %s\n" pr.piece.Mirage.Partition.id
              (Search.Stats.to_string o.Search.Generator.stats);
            Printf.printf "best muGraph:\n%s\n"
              (Mugraph.Pretty.kernel_graph_to_string pr.Mirage.best)
        | None -> ())
      report.Mirage.pieces;
    let piece_snaps =
      List.filter_map
        (fun (pr : Mirage.piece_result) ->
          Option.map (fun o -> o.Search.Generator.metrics) pr.Mirage.outcome)
        report.Mirage.pieces
    in
    (* Opt-in runnable-backend post-pass: each winning muGraph is
       compiled with the system cc and executed against the muGraph
       interpreter. Forensics land under RUN_DIR/differential/. *)
    let diff_results =
      if not differential then []
      else
        List.map
          (fun (pr : Mirage.piece_result) ->
            let id = pr.Mirage.piece.Mirage.Partition.id in
            let label =
              Printf.sprintf "%s_piece%d"
                (String.lowercase_ascii b.Workloads.Bench_defs.name)
                id
            in
            let rdir =
              Option.map
                (fun d ->
                  Filename.concat (Filename.concat d "differential") label)
                report_dir
            in
            (id, differential_post ?report_dir:rdir ~label pr.Mirage.best))
          report.Mirage.pieces
    in
    (match rep with
    | None -> ()
    | Some r ->
        Obs.Report.add r "benchmark"
          (Obs.Jsonw.Obj
             [
               ("name", Obs.Jsonw.Str b.Workloads.Bench_defs.name);
               ("arch", Obs.Jsonw.Str b.Workloads.Bench_defs.base_arch);
             ]);
        Obs.Report.add r "device"
          (Obs.Jsonw.Str device.Gpusim.Device.name);
        Obs.Report.add r "config" (Search.Config.to_json config);
        (* the resolved worker count, surfaced at top level so scaling
           sweeps don't have to dig it out of the config section *)
        Obs.Report.add r "workers"
          (Obs.Jsonw.Int config.Search.Config.num_workers);
        let outcomes =
          List.filter_map
            (fun (pr : Mirage.piece_result) -> pr.Mirage.outcome)
            report.Mirage.pieces
        in
        Obs.Report.add r "funnel"
          (funnel_json
             (Search.Stats.of_counters
                ~elapsed_s:
                  (List.fold_left
                     (fun acc o ->
                       acc +. o.Search.Generator.stats.Search.Stats.elapsed_s)
                     0.0 outcomes)
                (merged_metrics piece_snaps).Obs.Metrics.counters));
        let q, h, a, t =
          List.fold_left
            (fun (q, h, a, t) (o : Search.Generator.outcome) ->
              let sv = o.Search.Generator.solver in
              ( q + sv.Smtlite.Solver.queries,
                h + sv.Smtlite.Solver.cache_hits,
                a + sv.Smtlite.Solver.accepted,
                t +. sv.Smtlite.Solver.solve_time_s ))
            (0, 0, 0, 0.0) outcomes
        in
        Obs.Report.add r "solver"
          (Obs.Jsonw.Obj
             [
               ("queries", Obs.Jsonw.Int q);
               ("cache_hits", Obs.Jsonw.Int h);
               ("accepted", Obs.Jsonw.Int a);
               ("solve_time_s", Obs.Jsonw.Float t);
             ]);
        Obs.Report.add r "cost"
          (Obs.Jsonw.Obj
             [
               ("input_us", Obs.Jsonw.Float report.Mirage.input_us);
               ("optimized_us", Obs.Jsonw.Float report.Mirage.optimized_us);
               ("speedup", Obs.Jsonw.Float report.Mirage.speedup);
               ( "pieces",
                 Obs.Jsonw.List
                   (List.map
                      (fun (pr : Mirage.piece_result) ->
                        Obs.Jsonw.Obj
                          [
                            ( "id",
                              Obs.Jsonw.Int pr.Mirage.piece.Mirage.Partition.id
                            );
                            ( "input_us",
                              Obs.Jsonw.Float
                                pr.Mirage.input_cost.Gpusim.Cost.total_us );
                            ("best", Gpusim.Cost.to_json pr.Mirage.best_cost);
                          ])
                      report.Mirage.pieces) );
             ]);
        (* The winning muGraph per piece, serialized with the checkpoint
           codec: [run-winner RUN_DIR] compiles and executes these. *)
        Obs.Report.add r "winner"
          (Obs.Jsonw.List
             (List.map
                (fun (pr : Mirage.piece_result) ->
                  Obs.Jsonw.Obj
                    [
                      ( "piece",
                        Obs.Jsonw.Int pr.Mirage.piece.Mirage.Partition.id );
                      ( "graph",
                        Search.Checkpoint.graph_to_json pr.Mirage.best );
                    ])
                report.Mirage.pieces));
        if differential then
          Obs.Report.add r "differential"
            (Obs.Jsonw.List
               (List.map
                  (fun (id, res) ->
                    Obs.Jsonw.Obj
                      [
                        ("piece", Obs.Jsonw.Int id);
                        ( "status",
                          Obs.Jsonw.Str
                            (match res with
                            | None -> "skipped"
                            | Some true -> "ok"
                            | Some false -> "mismatch") );
                      ])
                  diff_results));
        Obs.Report.add r "metrics"
          (Obs.Metrics.to_json (merged_metrics piece_snaps)));
    if metrics then
      Printf.printf "== metrics\n%s"
        (Obs.Metrics.to_table (merged_metrics piece_snaps));
    if List.exists (fun (_, res) -> res = Some false) diff_results then exit 1
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Run the full superoptimizer on a benchmark (reduced dims)")
    Term.(
      const run $ bench_arg $ device_arg $ ops_arg $ workers_arg $ budget_arg
      $ trace_arg $ metrics_flag $ report_arg $ resume_arg
      $ differential_arg)

(* The work-stealing counters in one line: helper domains the search's
   on-demand lanes started, subtrees handed to the pool, steals. *)
let print_scheduler counter =
  Printf.printf
    "scheduler: %d helper lane(s) started, %d subtree task(s) spawned, %d \
     stolen (%d empty/raced attempts)\n"
    (counter "search.lanes.started")
    (counter "search.steal.spawned")
    (counter "search.steal.count")
    (counter "search.steal.failed")

let stats_cmd =
  let run name device max_ops workers budget trace report_dir =
    let b = lookup name in
    let spec, _ = b.Workloads.Bench_defs.reduced () in
    let config =
      search_config ~max_ops ~workers ~budget spec
    in
    with_artifacts ~kind:"stats" trace report_dir @@ fun rep ->
    let o = Search.Generator.run ~config ~verify_trials:2 ~device ~spec () in
    (match rep with
    | None -> ()
    | Some r ->
        Obs.Report.add r "benchmark"
          (Obs.Jsonw.Obj
             [
               ("name", Obs.Jsonw.Str b.Workloads.Bench_defs.name);
               ("arch", Obs.Jsonw.Str b.Workloads.Bench_defs.base_arch);
             ]);
        Obs.Report.add r "device" (Obs.Jsonw.Str device.Gpusim.Device.name);
        Obs.Report.add r "config" (Search.Config.to_json config);
        Obs.Report.add r "funnel" (funnel_json o.Search.Generator.stats);
        Obs.Report.add r "solver" (solver_json o.Search.Generator.solver);
        (match o.Search.Generator.best with
        | Some best ->
            Obs.Report.add r "cost"
              (Obs.Jsonw.Obj
                 [
                   ( "optimized_us",
                     Obs.Jsonw.Float best.Search.Generator.cost.Gpusim.Cost.total_us
                   );
                   ("best", Gpusim.Cost.to_json best.Search.Generator.cost);
                 ])
        | None -> ());
        Obs.Report.add r "metrics"
          (Obs.Metrics.to_json (merged_metrics [ o.Search.Generator.metrics ])));
    let s = o.Search.Generator.stats in
    let open Search.Stats in
    (* Each stage of the funnel subtracts one rejection class from the
       attempted extensions; non-negative by the funnel invariant. *)
    let shape_ok = s.expanded - s.shape_rejected in
    let mem_ok = shape_ok - s.memory_rejected in
    let not_pruned = mem_ok - s.pruned_abstract in
    let canonical = not_pruned - s.canonical_rejected in
    (* the goal-distance cut, judged after every other check *)
    let unreachable =
      List.fold_left
        (fun acc (k, n) ->
          if String.ends_with ~suffix:".reject.unreachable" k then acc + n
          else acc)
        0 o.Search.Generator.metrics.Obs.Metrics.counters
    in
    Printf.printf "== search funnel: %s on %s (reduced dims)\n"
      b.Workloads.Bench_defs.name device.Gpusim.Device.name;
    Printf.printf "  %-24s %9d\n" "expanded" s.expanded;
    Printf.printf "  %-24s %9d   (-%d shape-rejected)\n" "shape-ok" shape_ok
      s.shape_rejected;
    Printf.printf "  %-24s %9d   (-%d over the smem limit)\n" "mem-ok" mem_ok
      s.memory_rejected;
    Printf.printf "  %-24s %9d   (-%d pruned by abstract expr)\n" "not-pruned"
      not_pruned s.pruned_abstract;
    Printf.printf "  %-24s %9d   (-%d non-canonical)\n" "canonical" canonical
      s.canonical_rejected;
    Printf.printf "  %-24s %9d   (-%d unreachable in the op budget)\n"
      "reachable" (canonical - unreachable) unreachable;
    Printf.printf "  %-24s %9d\n" "candidates" s.candidates;
    Printf.printf "  %-24s %9d\n" "verified" s.verified;
    Printf.printf "  %-24s %9d\n" "duplicates" s.duplicates;
    Printf.printf "  funnel invariant: %s; %.2f s elapsed%s\n"
      (if Search.Stats.funnel_ok s then "ok" else "VIOLATED")
      s.elapsed_s
      (if o.Search.Generator.budget_exhausted then " (budget exhausted)"
       else "");
    if o.Search.Generator.task_failures > 0 then
      Printf.printf "  task crashes quarantined: %d\n"
        o.Search.Generator.task_failures;
    (match o.Search.Generator.degraded with
    | [] -> ()
    | ds -> Printf.printf "  degraded: %s\n" (String.concat ", " ds));
    let sv = o.Search.Generator.solver in
    let hit_pct =
      if sv.Smtlite.Solver.queries = 0 then 0.0
      else
        100.0
        *. float_of_int sv.Smtlite.Solver.cache_hits
        /. float_of_int sv.Smtlite.Solver.queries
    in
    Printf.printf
      "== solver: %d queries, %d cache hits (%.1f%%), %d accepted, %.4f s \
       solving\n"
      sv.Smtlite.Solver.queries sv.Smtlite.Solver.cache_hits hit_pct
      sv.Smtlite.Solver.accepted sv.Smtlite.Solver.solve_time_s;
    let counters = o.Search.Generator.metrics.Obs.Metrics.counters in
    print_scheduler (fun k ->
        Option.value ~default:0 (List.assoc_opt k counters));
    Printf.printf "== metrics\n%s"
      (Obs.Metrics.to_table (merged_metrics [ o.Search.Generator.metrics ]));
    if not (Search.Stats.funnel_ok s) then exit 1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the search on a benchmark and print the full search funnel \
          (expanded, per-stage rejections, candidates, verified), solver and \
          verifier telemetry")
    Term.(
      const run $ bench_arg $ device_arg $ ops_arg $ workers_arg $ budget_arg
      $ trace_arg $ report_arg)

(* ------------------------------------------------------------------ *)
(* Forensics over run artifacts: explain and diff                      *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN_DIR"
          ~doc:"Run directory from --report (or a journal.jsonl file).")
  in
  let cand_arg =
    Arg.(
      required
      & pos 1 (some int) None
      & info [] ~docv:"CANDIDATE"
          ~doc:"Candidate id (the \"cand\" field of journal events).")
  in
  let run dir cand =
    let jpath =
      if Sys.file_exists dir && Sys.is_directory dir then
        Filename.concat dir "journal.jsonl"
      else dir
    in
    match Obs.Journal.read_file jpath with
    | Error msg ->
        Printf.eprintf "explain: %s: %s\n" jpath msg;
        exit 2
    | Ok events ->
        let mine =
          List.filter (fun e -> Obs.Journal.cand_of e = cand) events
          |> List.sort (fun a b ->
                 compare (Obs.Journal.seq_of a) (Obs.Journal.seq_of b))
        in
        if mine = [] then begin
          Printf.eprintf "explain: no events for candidate %d in %s\n" cand
            jpath;
          exit 1
        end;
        Printf.printf "== candidate %d: %d event(s)\n" cand (List.length mine);
        List.iter
          (fun e ->
            let detail =
              match e with
              | Obs.Jsonw.Obj fields ->
                  fields
                  |> List.filter (fun (k, _) ->
                         not (List.mem k [ "seq"; "ts"; "dom"; "ev"; "cand" ]))
                  |> List.map (fun (k, v) ->
                         Printf.sprintf "%s=%s" k (Obs.Jsonw.to_string v))
                  |> String.concat " "
              | _ -> ""
            in
            let ts =
              match Obs.Jsonw.member "ts" e with
              | Some (Obs.Jsonw.Float f) -> f
              | Some (Obs.Jsonw.Int i) -> float_of_int i
              | _ -> 0.0
            in
            Printf.printf "%8d  %9.4fs  %-16s %s\n" (Obs.Journal.seq_of e) ts
              (Obs.Journal.typ_of e) detail)
          mine;
        (* one line summarizing how the candidate's story ended *)
        let last = List.nth mine (List.length mine - 1) in
        let str_field k e =
          match Obs.Jsonw.member k e with
          | Some (Obs.Jsonw.Str s) -> s
          | _ -> "?"
        in
        (match Obs.Journal.typ_of last with
        | "graph.emit" ->
            Printf.printf "-- emitted as a complete muGraph (unverified)\n"
        | "verify.verdict" ->
            Printf.printf "-- verifier verdict: %s\n" (str_field "verdict" last)
        | "cost.total" | "cost.kernel" ->
            Printf.printf "-- selected as the best verified muGraph\n"
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Reconstruct one candidate's lifecycle (emission, verification \
          verdict, cost attribution) from a run's journal")
    Term.(const run $ dir_arg $ cand_arg)

let diff_cmd =
  let a_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN_A" ~doc:"Baseline run directory (or report.json).")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"RUN_B" ~doc:"Candidate run directory (or report.json).")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.05
      & info [ "threshold" ] ~docv:"FRACTION"
          ~doc:
            "Regression threshold on the gated keys (cost.optimized_us, \
             timing.wall_s) as a fraction: 0.05 = 5%. Exceeding it exits \
             nonzero.")
  in
  let run a b threshold =
    match (Obs.Report.load a, Obs.Report.load b) with
    | Error e, _ ->
        Printf.eprintf "diff: %s: %s\n" a e;
        exit 2
    | _, Error e ->
        Printf.eprintf "diff: %s: %s\n" b e;
        exit 2
    | Ok ja, Ok jb ->
        let ds = Obs.Report.num_deltas ja jb in
        let changed =
          List.filter (fun (d : Obs.Report.delta) -> d.va <> d.vb) ds
        in
        Printf.printf "%-44s %14s %14s %9s\n" "key" "baseline" "candidate"
          "delta";
        List.iter
          (fun (d : Obs.Report.delta) ->
            let r = Obs.Report.rel d in
            Printf.printf "%-44s %14.6g %14.6g %+8.1f%%\n" d.key d.va d.vb
              (100.0 *. r))
          changed;
        Printf.printf "-- %d shared numeric key(s), %d changed\n"
          (List.length ds) (List.length changed);
        let violations = Obs.Report.gate ~threshold ja jb in
        if violations = [] then
          Printf.printf "-- no regression above %.1f%% on gated keys\n"
            (100.0 *. threshold)
        else begin
          List.iter
            (fun (d : Obs.Report.delta) ->
              Printf.printf "REGRESSION %s: %s\n" d.key
                (Obs.Report.explain ~threshold d))
            violations;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two run reports key by key (funnel, costs, timings); exits \
          nonzero when a gated key regresses beyond the threshold")
    Term.(const run $ a_arg $ b_arg $ threshold_arg)

let emit_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run name out =
    let b = lookup name in
    let c =
      Codegen.C_emit.emit
        (Impir.Lower.lower
           ~name:(String.lowercase_ascii b.Workloads.Bench_defs.name)
           b.Workloads.Bench_defs.mirage)
    in
    match out with
    | None -> print_string c
    | Some path ->
        let oc = open_out path in
        output_string oc c;
        close_out oc;
        Printf.printf "wrote %d lines to %s\n" (Codegen.C_emit.loc c) path
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Emit the runnable C99 for a benchmark's Mirage muGraph")
    Term.(const run $ bench_arg $ out_arg)

let run_winner_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN_DIR"
          ~doc:"Run directory written by optimize --report.")
  in
  let trials_arg =
    Arg.(
      value & opt int 8
      & info [ "trials" ] ~docv:"N" ~doc:"Random input sets to execute.")
  in
  let tol_arg =
    Arg.(
      value & opt float 1e-4
      & info [ "tol" ] ~docv:"EPS" ~doc:"Maximum relative error accepted.")
  in
  let run dir trials tol =
    let read_file path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let report_path = Filename.concat dir "report.json" in
    (* Winning muGraphs as persisted by optimize --report. *)
    let winners_of_report () =
      if not (Sys.file_exists report_path) then None
      else
        match Obs.Jsonw.of_string (read_file report_path) with
        | Error msg ->
            Printf.eprintf "run-winner: %s: %s\n" report_path msg;
            exit 2
        | Ok j -> (
            match Obs.Jsonw.member "winner" j with
            | Some (Obs.Jsonw.List l) ->
                Some
                  (List.filter_map
                     (fun e ->
                       match
                         ( Obs.Jsonw.member "piece" e,
                           Obs.Jsonw.member "graph" e )
                       with
                       | Some (Obs.Jsonw.Int id), Some gj -> (
                           match Search.Checkpoint.graph_of_json gj with
                           | Ok g -> Some (id, g)
                           | Error msg ->
                               Printf.eprintf
                                 "run-winner: piece %d: bad winner graph: %s\n"
                                 id msg;
                               exit 2)
                       | _ -> None)
                     l)
            | _ -> None)
    in
    (* Older runs have no winner section: fall back to the checkpoint's
       verified incumbents, one per piece. *)
    let winners_of_checkpoint () =
      match Search.Checkpoint.load dir with
      | Error msg ->
          Printf.eprintf
            "run-winner: %s has no winner section in report.json and no \
             loadable checkpoint.json (%s)\n"
            dir msg;
          exit 2
      | Ok ck ->
          List.map
            (fun (id, (_, g)) -> (id, g))
            (Search.Checkpoint.incumbents ck)
    in
    let winners =
      match winners_of_report () with
      | Some (_ :: _ as ws) -> ws
      | _ -> winners_of_checkpoint ()
    in
    if winners = [] then begin
      Printf.eprintf "run-winner: no winning muGraphs found in %s\n" dir;
      exit 2
    end;
    if not (Codegen.C_exec.cc_available ()) then begin
      Printf.printf
        "*** run-winner: SKIPPED — no working C compiler (cc) on PATH; the \
         runnable backend cannot be exercised here. ***\n";
      exit 0
    end;
    let failed = ref false in
    List.iter
      (fun (id, g) ->
        let label = Printf.sprintf "winner_piece%d" id in
        let rdir =
          Filename.concat (Filename.concat dir "differential") label
        in
        match
          Codegen.Differential.check ~trials ~tol ~report_dir:rdir ~keep:true
            ~name:label g
        with
        | Error e ->
            Printf.printf "piece %d: ERROR %s\n" id e;
            failed := true
        | Ok o ->
            Printf.printf "%s\n" (Codegen.Differential.pp_outcome o);
            Printf.printf "  generated C: %s\n" o.Codegen.Differential.c_file;
            if not o.Codegen.Differential.ok then failed := true)
      winners;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "run-winner"
       ~doc:
         "Lower the winning muGraph(s) of a --report run directory to the \
          imperative IR, compile the generated C with the system compiler, \
          execute on random inputs through the subprocess harness and \
          compare against the muGraph interpreter")
    Term.(const run $ dir_arg $ trials_arg $ tol_arg)

let symverify_cmd =
  let run name =
    let b = lookup name in
    let spec, plan = b.Workloads.Bench_defs.reduced () in
    Printf.printf
      "exact symbolic verification of the %s Mirage plan (reduced dims)\n"
      b.Workloads.Bench_defs.name;
    let r = Verify.Symbolic.equivalent ~spec plan in
    Printf.printf "result: %s\n" (Verify.Symbolic.to_string r);
    match r with Verify.Symbolic.Equivalent -> () | _ -> exit 1
  in
  Cmd.v
    (Cmd.info "symverify"
       ~doc:
         "Prove a benchmark's Mirage plan equivalent with the exact \
          symbolic verifier (paper §7's solver-based path)")
    Term.(const run $ bench_arg)

(* ------------------------------------------------------------------ *)
(* The optimization service: a daemon with a fingerprint-keyed result
   cache, and a one-shot client for it.                                *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/mirage-serve.sock"
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let cache_dir_arg =
    Arg.(
      value
      & opt string ".mirage-cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"On-disk result cache directory (content-addressed).")
  in
  let max_searches_arg =
    Arg.(
      value & opt int 2
      & info [ "max-searches" ] ~docv:"N"
          ~doc:"Concurrent searches the daemon runs (each fans out over \
                --workers domains).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Journal request/search lifecycle events to $(docv).")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Live-connection bound: connections beyond $(docv) are \
             answered with a typed overloaded rejection (0 = unlimited).")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Search-queue bound: at most $(docv) distinct searches may \
             wait for a slot; beyond that, typed overloaded (0 = \
             unlimited).")
  in
  let frame_timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "frame-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-frame read/write deadline: a peer that stalls \
             mid-frame longer than $(docv) is disconnected (slowloris \
             defense; 0 = unlimited).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Idle-connection deadline: a connection that sends nothing \
             for $(docv) is closed (0 = unlimited).")
  in
  let cache_max_bytes_arg =
    Arg.(
      value & opt int 0
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Byte cap on the on-disk result cache: stores beyond it \
             evict least-recently-used entries (0 = unlimited).")
  in
  let run socket cache_dir device max_ops workers budget max_searches journal
      max_connections max_queue_depth frame_timeout_s idle_timeout_s
      cache_max_bytes =
    (match journal with
    | Some path -> ignore (Obs.Journal.enable path)
    | None -> ());
    let base_config =
      {
        Search.Config.default with
        Search.Config.max_block_ops = max_ops;
        num_workers = resolve_workers workers;
        time_budget_s = budget;
      }
    in
    let server =
      Service.Server.create ~device ~base_config
        ~max_concurrent_searches:max_searches ~max_connections
        ~max_queue_depth ~frame_timeout_s ~idle_timeout_s ~cache_max_bytes
        ~socket_path:socket ~cache_dir ()
    in
    (* the ambient profiler records into the telemetry registry, so the
       phase sketches ride the daemon's metrics exposition *)
    ignore
      (Obs.Profile.enable
         ~registry:(Service.Telemetry.registry (Service.Server.telemetry server))
         ());
    Printf.printf "mirage service: socket %s, cache %s, device %s, %d worker(s)\n%!"
      socket cache_dir device.Gpusim.Device.name
      base_config.Search.Config.num_workers;
    (* a live daemon on the socket is a refusal, not a hijack *)
    (try Service.Server.run server
     with Failure m ->
       Printf.eprintf "serve: %s\n" m;
       exit 1);
    (* flush the journal before exiting so the last lifecycle events of
       a short-lived daemon (CI smokes) reach disk *)
    Obs.Journal.disable ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the optimization service daemon: a Unix-socket server with \
          a fingerprint-keyed muGraph result cache and single-flight \
          coalescing of identical concurrent requests")
    Term.(
      const run $ socket_arg $ cache_dir_arg $ device_arg $ ops_arg
      $ workers_arg $ budget_arg $ max_searches_arg
      $ journal_arg $ max_conns_arg $ max_queue_arg $ frame_timeout_arg $ idle_timeout_arg $ cache_max_bytes_arg)

(* Render the search-phase profile captured in a run's report.json:
   the phase tree (count/total/self/p50/p99) and the wall-time
   attribution line. *)
let profile_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN_DIR" ~doc:"Run directory (or report.json).")
  in
  let min_cov_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-coverage" ] ~docv:"FRACTION"
          ~doc:
            "Fail (exit 1) unless at least $(docv) of the dominant root \
             phase's wall time is attributed to its named sub-phases \
             (0.95 = 95%).")
  in
  let run dir min_cov =
    match Obs.Report.load dir with
    | Error e ->
        Printf.eprintf "profile: %s: %s\n" dir e;
        exit 2
    | Ok rep -> (
        match Obs.Jsonw.member "profile" rep with
        | None ->
            Printf.eprintf
              "profile: %s has no \"profile\" section (produced by runs \
               with --report-dir)\n"
              dir;
            exit 2
        | Some pj -> (
            match Obs.Profile.render pj with
            | Error m ->
                Printf.eprintf "profile: %s\n" m;
                exit 2
            | Ok text -> (
                print_string text;
                (* scheduler overlay: the work-stealing counters live in
                   the metrics section, not the phase tree — surface them
                   alongside the profile so scaling runs read one page *)
                (let counter name =
                   match
                     Obs.Jsonw.member "metrics" rep
                     |> Fun.flip Option.bind (Obs.Jsonw.member "counters")
                     |> Fun.flip Option.bind (Obs.Jsonw.member name)
                   with
                   | Some (Obs.Jsonw.Int n) -> n
                   | _ -> 0
                 in
                 if
                   List.exists
                     (fun k -> counter k > 0)
                     [ "search.lanes.started"; "search.steal.spawned";
                       "search.steal.count" ]
                 then print_scheduler counter);
                match min_cov with
                | None -> ()
                | Some want -> (
                    match Obs.Profile.coverage pj with
                    | None ->
                        Printf.eprintf
                          "profile: no root phase to gate coverage on\n";
                        exit 1
                    | Some (root, cov) ->
                        if cov < want then begin
                          Printf.eprintf
                            "profile: %.1f%% of %S wall time attributed, \
                             below required %.1f%%\n"
                            (100.0 *. cov) root (100.0 *. want);
                          exit 1
                        end))))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Analyze the search-phase wall-time profile of a finished run: \
          phase breakdown with self/total attribution and per-phase \
          latency quantiles, from the run report's profile section")
    Term.(const run $ dir_arg $ min_cov_arg)

(* A latency in µs at a readable scale, for the progress line. *)
let pp_us v =
  if v >= 1e6 then Printf.sprintf "%.2fs" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.2fms" (v /. 1e3)
  else Printf.sprintf "%.0fus" v

let request_cmd =
  let what_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WHAT"
          ~doc:
            "A benchmark name (sends an optimize request), or one of \
             $(b,status), $(b,metrics), $(b,shutdown).")
  in
  let prom_flag =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "With $(b,metrics): ask for (and print) the Prometheus text \
             exposition instead of the JSON snapshot.")
  in
  let progress_flag =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "With a benchmark: opt into live progress streaming and \
             render the interleaved frames (phase, nodes expanded, \
             candidates, best cost, budget remaining) as an updating \
             line on stderr while the search runs.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "End-to-end deadline in milliseconds: bounds queue wait, \
             search budget and coalesced wait; an expired deadline is \
             answered with a typed $(b,timeout).")
  in
  let retry_flag =
    Arg.(
      value & flag
      & info [ "retry" ]
          ~doc:
            "Retry transient failures (transport errors, typed \
             $(b,overloaded) rejections) with \
             bounded jittered exponential back-off, honoring the \
             server's retry_after_s hint.")
  in
  let drain_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "drain" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,shutdown): graceful drain — in-flight searches \
             get $(docv) seconds to finish before their budgets are \
             cancelled.")
  in
  let run socket what max_ops workers budget prometheus progress deadline_ms
      retry drain_s =
    (* live progress rendering: one updating stderr line per frame (a
       plain newline-per-frame stream when stderr is not a tty) *)
    let tty = Unix.isatty Unix.stderr in
    let streamed = ref false in
    let on_progress frame =
      streamed := true;
      let num k =
        match Obs.Jsonw.member k frame with
        | Some (Obs.Jsonw.Float f) -> Some f
        | Some (Obs.Jsonw.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      let int_ k =
        match Obs.Jsonw.member k frame with
        | Some (Obs.Jsonw.Int i) -> i
        | _ -> 0
      in
      let phase =
        match Obs.Jsonw.member "phase" frame with
        | Some (Obs.Jsonw.Str s) -> s
        | _ -> "?"
      in
      Printf.eprintf
        "%s[%6.1fs] %-9s nodes %-8d candidates %-5d best %s%s%s%s%!"
        (if tty then "\r\027[2K" else "")
        (match num "elapsed_s" with Some s -> s | None -> 0.0)
        phase (int_ "nodes_expanded") (int_ "candidates")
        (match num "best_cost_us" with
        | Some us -> pp_us us
        | None -> "-")
        (match int_ "tasks_stolen" with
        | 0 -> ""
        | n -> Printf.sprintf "  stolen %d" n)
        (match num "budget_remaining_s" with
        | Some s -> Printf.sprintf "  budget %.1fs" s
        | None -> "")
        (if tty then "" else "\n")
    in
    let send ?on_progress ~socket_path req =
      if retry then
        Service.Client.request_with_retry ?on_progress
          ~on_retry:(fun ~attempt ~delay_s ~reason ->
            Printf.eprintf "retry %d in %.2fs (%s)\n%!" attempt delay_s reason)
          ~socket_path req
      else Service.Client.request ?on_progress ~socket_path req
    in
    let resp =
      match what with
      | "metrics" when prometheus ->
          Service.Client.metrics ~format:"prometheus" ~socket_path:socket ()
      | "shutdown" ->
          Service.Client.shutdown ?drain_s ~socket_path:socket ()
      | "status" | "metrics" ->
          send ~socket_path:socket (Obs.Jsonw.Obj [ ("op", Obs.Jsonw.Str what) ])
      | benchmark ->
          let fields =
            [
              ("op", Obs.Jsonw.Str "optimize");
              ("benchmark", Obs.Jsonw.Str benchmark);
              ("max_block_ops", Obs.Jsonw.Int max_ops);
              ("workers", Obs.Jsonw.Int (resolve_workers workers));
              ("budget_s", Obs.Jsonw.Float budget);
            ]
            @
            match deadline_ms with
            | Some ms -> [ ("deadline_ms", Obs.Jsonw.Float ms) ]
            | None -> []
          in
          send
            ?on_progress:(if progress then Some on_progress else None)
            ~socket_path:socket (Obs.Jsonw.Obj fields)
    in
    if !streamed && tty then Printf.eprintf "\n%!";
    match resp with
    | Error m ->
        Printf.eprintf "request failed: %s\n" m;
        exit 1
    | Ok j -> (
        (match (what, prometheus, Obs.Jsonw.member "text" j) with
        | "metrics", true, Some (Obs.Jsonw.Str text) -> print_string text
        | _ -> print_endline (Obs.Jsonw.pretty j));
        (* a metrics scrape is validated at the edge: a daemon answering
           with a malformed snapshot fails the request loudly *)
        (if what = "metrics" && not prometheus then
           match Service.Telemetry.check_snapshot j with
           | Ok () -> ()
           | Error m ->
               Printf.eprintf "malformed metrics snapshot: %s\n" m;
               exit 1);
        match Obs.Jsonw.member "status" j with
        | Some (Obs.Jsonw.Str "ok") -> ()
        | _ -> exit 1)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running optimization service and print \
          the JSON response")
    Term.(
      const run $ socket_arg $ what_arg $ ops_arg $ workers_arg $ budget_arg
      $ prom_flag $ progress_flag $ deadline_arg $ retry_flag $ drain_arg)

let () =
  let info =
    Cmd.info "mirage-cli" ~version:"1.0.0"
      ~doc:"Mirage multi-level tensor-program superoptimizer (reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            verify_cmd;
            symverify_cmd;
            inspect_cmd;
            bench_cmd;
            optimize_cmd;
            stats_cmd;
            emit_cmd;
            run_winner_cmd;
            explain_cmd;
            diff_cmd;
            profile_cmd;
            serve_cmd;
            request_cmd;
          ]))
