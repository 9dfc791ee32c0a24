(* search_fig7: complete searches of the reduced Fig. 7 specs, timed as
   one [Mirage.superoptimize] call each. *)

open Mugraph

type program = {
  name : string;
  spec : Graph.kernel_graph;
  template_us : float;  (** A100 cost of the hand template *)
}

let device = Ctx.device

let fig7 () =
  List.map
    (fun (b : Workloads.Bench_defs.benchmark) ->
      let spec, plan = b.Workloads.Bench_defs.reduced () in
      {
        name = b.Workloads.Bench_defs.name;
        spec;
        template_us = Gpusim.Cost.total_us device plan;
      })
    (Workloads.Bench_defs.all ())

(* Not one of the measured programs: warms the verifier tables, the
   solver and the domain pool before the first timed op. *)
let warmup_spec () = Baselines.Templates.gated_mlp_spec ~b:2 ~h:4 ~f:16

(* What one search produced, from either the library's own pipeline or
   the decomposed one. *)
type outcome = {
  optimized_us : float;
  winners : (Graph.kernel_graph * Graph.kernel_graph) list;
      (** (piece spec, chosen plan) per LAX piece *)
  degraded : string list;
}

let of_report (r : Mirage.report) =
  List.fold_left
    (fun acc (pr : Mirage.piece_result) ->
      match pr.Mirage.outcome with
      | None -> acc
      | Some o ->
          {
            acc with
            winners = (pr.Mirage.piece.Mirage.Partition.graph, pr.Mirage.best) :: acc.winners;
            degraded =
              acc.degraded @ o.Search.Generator.degraded
              @ (if o.Search.Generator.budget_exhausted then [ "budget_exhausted" ] else [])
              @
              if o.Search.Generator.task_failures > 0 then [ "task_failures" ] else [];
          })
    { optimized_us = r.Mirage.optimized_us; winners = []; degraded = [] }
    r.Mirage.pieces

(* Per-layer counts gathered from the decomposed pipeline. *)
type layer_counts = {
  mutable lax_pieces : int;
  mutable expanded : int;
  mutable pruned_abstract : int;
  mutable shape_rejected : int;
  mutable canonical_rejected : int;
  mutable duplicates : int;
  mutable candidates : int;
  mutable spawned : int;
  mutable stolen : int;
  mutable gc_minor : int;
  mutable promoted_words : float;
  mutable queries : int;
  mutable query_hits : int;
  mutable solve_s : float;
  mutable cost_calls : int;
  mutable checks : int;
  mutable passed : int;
  mutable trials : int;
}

let counts () =
  {
    lax_pieces = 0;
    expanded = 0;
    pruned_abstract = 0;
    shape_rejected = 0;
    canonical_rejected = 0;
    duplicates = 0;
    candidates = 0;
    spawned = 0;
    stolen = 0;
    gc_minor = 0;
    promoted_words = 0.0;
    queries = 0;
    query_hits = 0;
    solve_s = 0.0;
    cost_calls = 0;
    checks = 0;
    passed = 0;
    trials = 0;
  }

let cost c g =
  c.cost_calls <- c.cost_calls + 1;
  Gpusim.Cost.cost device g

(* [Mirage.superoptimize] taken apart into its public layer calls —
   partition, [Generator.generate], cost, verify, thread fusion,
   optimize — each under its own span. It must choose the winner the
   library's pipeline chooses. *)
let decomposed c ~config ~verify_trials spec =
  let part = Span.with_ "mirage" "partition" (fun () -> Mirage.Partition.partition spec) in
  let one (p : Mirage.Partition.piece) =
    let pspec = p.Mirage.Partition.graph in
    let spec_cost = Span.with_ "gpusim" "cost" (fun () -> cost c pspec) in
    if not p.Mirage.Partition.lax then begin
      ignore (Span.with_ "opt" "optimize" (fun () -> Opt.Optimizer.optimize device pspec));
      (spec_cost.Gpusim.Cost.total_us, None, [])
    end
    else begin
      c.lax_pieces <- c.lax_pieces + 1;
      let solver = Smtlite.Solver.create ~target:(Abstract.output_exprs pspec) in
      let stats = Search.Stats.create () in
      let budget = Search.Budget.of_config config in
      let pool = ref None in
      let g0 = Gc.quick_stat () in
      let cands, exhausted, crashes =
        Span.with_ "search" "generate" (fun () ->
            Search.Generator.generate config ~spec:pspec ~solver ~stats
              ~limits:(Gpusim.Device.limits device) ~budget
              ~on_pool:(fun p -> pool := Some p)
              ())
      in
      let g1 = Gc.quick_stat () in
      c.gc_minor <- c.gc_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
      c.promoted_words <- c.promoted_words +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
      (match !pool with
      | Some p ->
          c.spawned <- c.spawned + Search.Deque.Pool.spawned p;
          c.stolen <- c.stolen + Search.Deque.Pool.steals p
      | None -> ());
      let s = Search.Stats.snapshot stats in
      c.expanded <- c.expanded + s.Search.Stats.expanded;
      c.pruned_abstract <- c.pruned_abstract + s.Search.Stats.pruned_abstract;
      c.shape_rejected <- c.shape_rejected + s.Search.Stats.shape_rejected;
      c.canonical_rejected <- c.canonical_rejected + s.Search.Stats.canonical_rejected;
      c.duplicates <- c.duplicates + s.Search.Stats.duplicates;
      c.candidates <- c.candidates + s.Search.Stats.candidates;
      let sv = Smtlite.Solver.stats solver in
      c.queries <- c.queries + sv.Smtlite.Solver.queries;
      c.query_hits <- c.query_hits + sv.Smtlite.Solver.cache_hits;
      c.solve_s <- c.solve_s +. sv.Smtlite.Solver.solve_time_s;
      (* the generator's order: cost, then graph hash, then structure *)
      let costed =
        Span.with_ "gpusim" "cost" (fun () ->
            List.map
              (fun ((_, g), _, _) -> g)
              (List.sort
                 (fun ((_, ga), a, ha) ((_, gb), b, hb) ->
                   let k = Float.compare a.Gpusim.Cost.total_us b.Gpusim.Cost.total_us in
                   if k <> 0 then k
                   else
                     let k = Int.compare ha hb in
                     if k <> 0 then k else Stdlib.compare ga gb)
                 (List.map (fun (gid, g) -> ((gid, g), cost c g, Graph.hash g)) cands)))
      in
      let session =
        Span.with_ "verify" "session" (fun () ->
            Verify.Random_test.make_session ~fast:config.Search.Config.verify_fast_path
              ~spec:pspec ())
      in
      let check ~trials g =
        Span.with_ "verify" "check" (fun () ->
            let d = Verify.Random_test.equivalent_detailed ~trials ~session ~spec:pspec g in
            c.checks <- c.checks + 1;
            c.trials <- c.trials + d.Verify.Random_test.trials_run;
            let ok = d.Verify.Random_test.result = Verify.Random_test.Equivalent in
            if ok then c.passed <- c.passed + 1;
            ok)
      in
      let winner =
        List.find_opt (fun g -> check ~trials:1 g && check ~trials:verify_trials g) costed
      in
      let best, best_us =
        match winner with
        | None -> (pspec, spec_cost.Gpusim.Cost.total_us)
        | Some g ->
            let g =
              if config.Search.Config.use_thread_fusion then
                Span.with_ "search" "thread_fuse" (fun () -> Search.Thread_fuse.fuse_kernel g)
              else g
            in
            let w = Span.with_ "gpusim" "cost" (fun () -> cost c g) in
            if w.Gpusim.Cost.total_us < spec_cost.Gpusim.Cost.total_us then
              (g, w.Gpusim.Cost.total_us)
            else (pspec, spec_cost.Gpusim.Cost.total_us)
      in
      ignore (Span.with_ "opt" "optimize" (fun () -> Opt.Optimizer.optimize device best));
      let degraded =
        Obs.Budget.reasons budget
        @ (if exhausted then [ "budget_exhausted" ] else [])
        @ if crashes > 0 then [ "task_failures" ] else []
      in
      (best_us, Some (pspec, best), degraded)
    end
  in
  let parts = List.map one part.Mirage.Partition.pieces in
  {
    optimized_us = Stat.sum (List.map (fun (u, _, _) -> u) parts);
    winners = List.filter_map (fun (_, w, _) -> w) parts;
    degraded = List.concat_map (fun (_, _, d) -> d) parts;
  }

(* Journal and profile on, as [mirage_cli optimize --report] runs them,
   the journal written to a fresh file that is removed after the op.
   Returns the result, the op's wall time (journal flush and close
   included) and the journal's bytes, events (lines, counted only when
   [count], after the timing) and dropped events. *)
let with_report ctx ~count f =
  let path = Filename.concat ctx.Ctx.tmp "journal.jsonl" in
  let dropped = ref 0 in
  let r, dt =
    Ctx.time (fun () ->
        let j = Obs.Journal.enable path in
        let prof = Obs.Profile.enable () in
        Fun.protect
          ~finally:(fun () ->
            ignore (Obs.Profile.snapshot prof);
            Obs.Profile.disable ();
            dropped := Obs.Journal.dropped j;
            Obs.Journal.disable ())
          f)
  in
  let bytes = (Unix.stat path).Unix.st_size in
  let events =
    if not count then 0
    else begin
      let ic = open_in_bin path in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n
    end
  in
  Sys.remove path;
  (r, dt, bytes, events, !dropped)

(* The obs layer, priced in the traced run: the two cheap programs
   searched at 1 worker with journal and profile on, as
   [optimize --report] runs them, beside the same searches plain. *)
let measure_obs ctx programs ~verify_trials =
  let reported = ref 0.0 and plain = ref 0.0 in
  let bytes = ref 0 and events = ref 0 and dropped = ref 0 in
  let ps = List.filter (fun p -> List.mem p.name [ "GatedMLP"; "RMSNorm" ]) programs in
  List.iter
    (fun p ->
      let config = Ctx.search_config ~workers:1 p.spec in
      let search () = Mirage.superoptimize ~config ~verify_trials ~device p.spec in
      let _, dt, b, e, d = with_report ctx ~count:true search in
      reported := !reported +. dt;
      bytes := !bytes + b;
      events := !events + e;
      dropped := !dropped + d;
      plain := !plain +. snd (Ctx.time search))
    ps;
  let n = List.length ps in
  let note = Printf.sprintf "%d reported searches at 1 worker" n in
  let mb = float_of_int !bytes /. 1e6 in
  Ctx.record ctx ~note "obs.journal_mb" "MB" (mb /. float_of_int n);
  Ctx.record ctx ~note "obs.journal_mb_per_s" "MB/s" (mb /. !reported);
  Ctx.record ctx ~note "obs.journal_events" "count" (float_of_int !events);
  Ctx.record ctx ~note "obs.journal_dropped" "count" (float_of_int !dropped);
  Ctx.record ctx ~note:"reported minus plain searches" "obs.self_s" "s" (!reported -. !plain)

let run ctx =
  let workers = Search.Config.default_workers in
  let rounds = Ctx.rounds ctx ~per_10s:2.0 in
  let programs =
    Ctx.setup ctx ~teardown:ignore (fun () ->
        let ps = fig7 () in
        let w = warmup_spec () in
        ignore (Mirage.superoptimize ~config:(Ctx.search_config ~workers w) ~device w);
        ps)
  in
  let configs = List.map (fun p -> (p.name, Ctx.search_config ~workers p.spec)) programs in
  let verify_trials = 2 in
  let c = counts () in
  let winner_us = Hashtbl.create 8 in
  let check p (o : outcome) =
    if o.degraded <> [] then
      Ctx.fail ctx "%s: degraded search [%s]" p.name (String.concat "," o.degraded);
    List.iter
      (fun (pspec, best) ->
        match
          Verify.Random_test.equivalent ~trials:8 ~seed:ctx.Ctx.seed ~spec:pspec best
        with
        | Verify.Random_test.Equivalent -> ()
        | v ->
            Ctx.fail ctx "%s: winner fails re-verification: %s" p.name
              (Verify.Random_test.to_string v))
      o.winners;
    match Hashtbl.find_opt winner_us p.name with
    | Some u when u <> o.optimized_us ->
        Ctx.fail ctx "%s: winner cost %.6f differs from an earlier %.6f" p.name o.optimized_us u
    | Some _ -> ()
    | None -> Hashtbl.replace winner_us p.name o.optimized_us
  in
  (* Untraced: the library's pipeline. Traced: the same search taken
     apart, with a span around every layer call, and beside it the same
     decomposed search with spans off, the two in alternating order; the
     time between them is what the spans cost. *)
  let traced_s = ref 0.0 and untraced_s = ref 0.0 and traced_first = ref false in
  let op p =
    let config = List.assoc p.name configs in
    if not ctx.Ctx.trace then
      Ctx.time (fun () -> of_report (Mirage.superoptimize ~config ~verify_trials ~device p.spec))
    else begin
      let traced () =
        Span.set_enabled true;
        let o, dt =
          Ctx.time (fun () ->
              Span.op "mirage" p.name (fun () -> decomposed c ~config ~verify_trials p.spec))
        in
        traced_s := !traced_s +. dt;
        (o, dt)
      and untraced () =
        Span.set_enabled false;
        let o, dt = Ctx.time (fun () -> decomposed (counts ()) ~config ~verify_trials p.spec) in
        Span.set_enabled true;
        untraced_s := !untraced_s +. dt;
        check p o
      in
      traced_first := not !traced_first;
      if !traced_first then begin
        let r = traced () in
        untraced ();
        r
      end
      else begin
        untraced ();
        traced ()
      end
    end
  in
  let samples = ref [] in
  let t0 = Ctx.now () in
  for _ = 1 to rounds do
    List.iter
      (fun p ->
        Ctx.attempt ctx;
        match op p with
        | o, dt ->
            samples := (p.name, dt) :: !samples;
            check p o
        | exception e -> Ctx.fail ctx "%s: %s" p.name (Printexc.to_string e))
      (Ctx.shuffle ctx programs)
  done;
  let wall_s = Ctx.now () -. t0 in
  Ctx.record_ops ctx ~samples:!samples ~wall_s;
  Ctx.record ctx
    ~note:(Printf.sprintf "geomean of %d programs" (Hashtbl.length winner_us))
    "mirage.winner_over_template" "ratio"
    (Stat.geomean
       (List.filter_map
          (fun p -> Option.map (fun u -> u /. p.template_us) (Hashtbl.find_opt winner_us p.name))
          programs));
  if ctx.Ctx.trace then begin
    Ctx.record ctx
      ~note:(Printf.sprintf "%d decomposed searches each way" (List.length !samples))
      "trace.overhead" "ratio"
      ((!traced_s /. !untraced_s) -. 1.0);
    (* The library's own pipeline, once per program, must find the
       winners the decomposed search found. *)
    Span.set_enabled false;
    List.iter
      (fun p ->
        let config = List.assoc p.name configs in
        let o = of_report (Mirage.superoptimize ~config ~verify_trials ~device p.spec) in
        match Hashtbl.find_opt winner_us p.name with
        | Some u when u <> o.optimized_us ->
            Ctx.fail ctx "%s: decomposed winner %.6f us, superoptimize %.6f us" p.name u
              o.optimized_us
        | _ -> ())
      programs;
    let per = float_of_int rounds in
    let pr name unit v = Ctx.record ctx ~note:"per round" name unit v in
    let cnt name v = pr name "count" (float_of_int v /. per) in
    let enum_s = Span.total ~layer:"search" ~name:"generate" /. per in
    pr "mirage.partition_s" "s" (Span.total ~layer:"mirage" ~name:"partition" /. per);
    cnt "mirage.lax_pieces" c.lax_pieces;
    pr "search.enumerate_s" "s" enum_s;
    cnt "search.expanded" c.expanded;
    pr "search.expansions_per_s" "1/s" (float_of_int c.expanded /. per /. enum_s);
    cnt "search.pruned_abstract" c.pruned_abstract;
    cnt "search.shape_rejected" c.shape_rejected;
    cnt "search.canonical_rejected" c.canonical_rejected;
    cnt "search.duplicates" c.duplicates;
    cnt "search.candidates" c.candidates;
    pr "search.useful_ratio" "ratio"
      (float_of_int c.candidates /. float_of_int (max 1 c.expanded));
    cnt "search.tasks_spawned" c.spawned;
    cnt "search.tasks_stolen" c.stolen;
    cnt "search.gc_minor" c.gc_minor;
    pr "search.promoted_mb" "MB" (c.promoted_words *. 8.0 /. 1e6 /. per);
    cnt "smtlite.queries" c.queries;
    pr "smtlite.hit_ratio" "ratio" (float_of_int c.query_hits /. float_of_int (max 1 c.queries));
    pr "smtlite.solve_s" "s" (c.solve_s /. per);
    pr "gpusim.cost_s" "s" (Span.total ~layer:"gpusim" ~name:"cost" /. per);
    cnt "gpusim.cost_calls" c.cost_calls;
    let check_s = Span.total ~layer:"verify" ~name:"check" /. per in
    pr "verify.check_s" "s" check_s;
    cnt "verify.trials" c.trials;
    pr "verify.trials_per_s" "1/s" (float_of_int c.trials /. per /. check_s);
    pr "verify.pass_ratio" "ratio" (float_of_int c.passed /. float_of_int (max 1 c.checks));
    pr "opt.optimize_s" "s" (Span.total ~layer:"opt" ~name:"optimize" /. per);
    Ctx.record_self_times ctx ~layers:[ "mirage"; "search" ] ~per;
    (* the solver runs inside enumeration, where no span can reach: its
       time is the solver's own timer, and search's self time excludes it *)
    (match List.assoc_opt "search.self_s" ctx.Ctx.metrics with
    | Some (v, u, n) -> Ctx.record ctx ~note:n "search.self_s" u (v -. (c.solve_s /. per))
    | None -> ());
    measure_obs ctx programs ~verify_trials
  end
