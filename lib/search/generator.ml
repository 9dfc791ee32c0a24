open Mugraph

type result = {
  graph : Graph.kernel_graph;
  cost : Gpusim.Cost.graph_cost;
}

type outcome = {
  best : result option;
  verified : result list;
  generated : int;
  stats : Stats.snapshot;
  metrics : Obs.Metrics.snapshot;
  solver : Smtlite.Solver.stats;
  budget_exhausted : bool;
  task_failures : int;
  degraded : string list;
}

type task = T_kernel | T_class of Block_enum.root_class

let task_label = function
  | T_kernel -> "kernel"
  | T_class _ -> "root"

(* Worker domains inherit the spawner's ambient journal context (the
   serving tier's request id), so a request's id survives the fan-out
   and its search events stay filterable by rid — and the spawner's
   profile phase path, so a worker's task phases land under the
   spawning phase ([search/enumerate/task.kernel]) instead of floating
   at the root of a fresh stack. *)
let spawn f =
  let ctx = Obs.Journal.context () in
  let ppath = Obs.Profile.saved_path () in
  Domain.spawn (fun () ->
      Obs.Journal.set_context ctx;
      Fun.protect
        ~finally:(fun () -> Obs.Journal.set_context [])
        (fun () -> Obs.Profile.with_base ppath f))

(* Lane 0 runs on the calling domain, lanes 1 .. n-1 on spawned ones. A
   caller that only waited in [Domain.join] would still be a domain
   every stop-the-world minor collection has to wake (through its
   backup thread); working as a lane, it is one fewer domain to wake
   and one more doing the work. Salvage-then-report: every domain is
   joined before anything is decided, so one lane's death (lane 0's
   included) never discards what the others did. *)
let lanes n f =
  let spawned =
    List.init (max 0 (n - 1)) (fun i -> spawn (fun () -> f (i + 1)))
  in
  let own = match f 0 with () -> [] | exception exn -> [ exn ] in
  own
  @ List.filter_map
      (fun d ->
        match Domain.join d with () -> None | exception exn -> Some exn)
      spawned

(* Run the enumerators over all tasks, collecting deduplicated raw
   candidates. Tasks seed a work-stealing pool (one Chase–Lev deque per
   lane); at or below [steal_depth_cutoff], and only while some worker is
   hungry, the enumerators publish subtree continuations back onto it,
   so one deep root no longer serializes the search while the other
   domains idle, and a busy pool is not fed subtrees.

   Each item (a task's root or one of its spawned subtrees) runs
   quarantined: an unexpected exception is journaled as cand.crash (with
   backtrace) and counted, and the worker moves on. Only past
   [cfg.max_task_failures] crashes does the whole search abort — and
   even then candidates already emitted survive, because emission goes
   through the shared accumulator as graphs are found, not at task
   completion. A task advances the resume cursor only when its root and
   every spawned subtree finished cleanly. *)
let n_shards = 16 (* power of two; shard = hash low bits *)

let generate (cfg : Config.t) ~spec ~solver ~stats ~limits ~budget ?checkpoint
    ?(piece = 0) ?on_pool () =
  Printexc.record_backtrace true;
  (* Both tables mask their values against the spec outputs' normal
     forms, normalized once here. A level whose inputs are already
     farther from the goal than its operator budget (the goal-distance
     cut, see Prefix) has no task: the block level's roots are not even
     enumerated. *)
  let goals = Prefix.spec_goals spec in
  let kvalues = Prefix.values goals and bvalues = Prefix.values goals in
  let inputs = List.map Absexpr.Nf.nf_var (Graph.input_names spec) in
  let classes =
    if
      Prefix.level_reachable cfg bvalues cfg.Config.block_op_menu ~inputs
        ~max_ops:cfg.Config.max_block_ops
    then
      Block_enum.enumerate_roots cfg ~input_shapes:(Graph.input_shapes spec)
    else []
  in
  let tasks =
    Array.of_list
      ((if
          Prefix.level_reachable cfg kvalues cfg.Config.kernel_op_menu ~inputs
            ~max_ops:cfg.Config.max_kernel_ops
        then [ T_kernel ]
        else [])
      @ List.map (fun c -> T_class c) classes)
  in
  let n_tasks = Array.length tasks in
  let skip =
    match checkpoint with
    | Some ck ->
        let done_ = Checkpoint.completed ck ~piece in
        let a = Array.make n_tasks false in
        List.iter (fun i -> if i < Array.length a then a.(i) <- true) done_;
        a
    | None -> Array.make n_tasks false
  in
  Obs.Log.debug (fun m ->
      m "generate: %d tasks (%d root classes, %d resumed), %d worker(s)"
        n_tasks (List.length classes)
        (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 skip)
        cfg.Config.num_workers);
  let exhausted = Atomic.make false in
  let failures = Atomic.make 0 in
  let reg = Stats.registry stats in
  let c_crash =
    Obs.Metrics.counter reg ~help:"enumeration tasks that crashed and were quarantined"
      "search.task.crashes"
  in
  (* The pool counts spawns and steals in its own atomics; the registry
     (which sums over every pool that reports into it) gets them once,
     after the workers have joined. *)
  let c_spawned =
    Obs.Metrics.counter reg ~help:"subtree continuations spawned"
      "search.steal.spawned"
  in
  let c_steals =
    Obs.Metrics.counter reg ~help:"successful work steals" "search.steal.count"
  in
  (* Dedup sharded by graph hash: emission from different subtrees only
     contends when two candidates land in the same shard, instead of
     every worker serializing on one table mutex. *)
  let shards =
    Array.init n_shards (fun _ ->
        (Mutex.create (), Hashtbl.create 64, ref []))
  in
  (* Graph-level candidate ids share the journal's id counter with the
     per-extension ids, so `explain` resolves either kind. When the
     journal is off, ids still flow (from a shared counter) but no events
     are written. *)
  let journal = Obs.Journal.active () in
  let next_gid = Atomic.make 0 in
  (* Resume: preload previously-emitted candidates so re-run partial
     tasks deduplicate against them instead of double-counting. Runs
     before any worker exists, so plain updates are safe. *)
  (match checkpoint with
  | Some ck ->
      List.iter
        (fun (gid, g) ->
          let h = Graph.hash g in
          let _, seen, cands = shards.(h land (n_shards - 1)) in
          Hashtbl.add seen h g;
          cands := (gid, g) :: !cands;
          if gid > Atomic.get next_gid then Atomic.set next_gid gid)
        (Checkpoint.candidates ck ~piece)
  | None -> ());
  let emit g =
    (* Hash outside the lock: hashing is the expensive part of dedup, and
       computing it inside the critical section serialized all workers on
       it. It also picks the shard. *)
    let h = Graph.hash g in
    let lock, seen, cands = shards.(h land (n_shards - 1)) in
    Mutex.lock lock;
    let dup = List.exists (fun g' -> Graph.equal g g') (Hashtbl.find_all seen h) in
    if dup then begin
      Stats.add stats Stats.Duplicates 1;
      match journal with
      | Some j ->
          Obs.Journal.emit j ~typ:"graph.duplicate"
            [ ("hash", Obs.Jsonw.Int h) ]
      | None -> ()
    end
    else begin
      Hashtbl.add seen h g;
      let gid =
        match journal with
        | Some j ->
            let gid = Obs.Journal.fresh_id j in
            Obs.Journal.emit j ~cand:gid ~typ:"graph.emit"
              [
                ("hash", Obs.Jsonw.Int h);
                ("knodes", Obs.Jsonw.Int (Array.length g.Graph.knodes));
              ];
            gid
        | None -> 1 + Atomic.fetch_and_add next_gid 1
      in
      cands := (gid, g) :: !cands;
      match checkpoint with
      | Some ck -> Checkpoint.add_candidate ck ~piece ~gid g
      | None -> ()
    end;
    Mutex.unlock lock
  in
  let record_crash i exn bt =
    let n = 1 + Atomic.fetch_and_add failures 1 in
    Obs.Metrics.add c_crash 1;
    Obs.Budget.note budget "worker.crash";
    let msg = Printexc.to_string exn in
    Obs.Log.warn (fun m ->
        m "task %d (%s) crashed (%d/%d tolerated): %s" i
          (task_label tasks.(i)) n cfg.Config.max_task_failures msg);
    (match journal with
    | Some j ->
        Obs.Journal.emit j ~typ:"cand.crash"
          [
            ("task", Obs.Jsonw.Int i);
            ("kind", Obs.Jsonw.Str (task_label tasks.(i)));
            ("exn", Obs.Jsonw.Str msg);
            ("backtrace", Obs.Jsonw.Str (Printexc.raw_backtrace_to_string bt));
            ("failures", Obs.Jsonw.Int n);
          ]
    | None -> ());
    if n > cfg.Config.max_task_failures then begin
      Obs.Budget.note budget "worker.abort";
      Obs.Log.warn (fun m ->
          m "aborting search: %d task crashes exceed max_task_failures=%d" n
            cfg.Config.max_task_failures);
      Atomic.set exhausted true
    end
  in
  let workers = max 1 cfg.Config.num_workers in
  let pool = Deque.Pool.create ~registry:reg ~workers () in
  (match on_pool with Some f -> f pool | None -> ());
  (* One solver front per worker, resolved before any worker runs, and
     beside it the worker's extension memo for each level, over the
     level's value table, with the worker's funnel buffer for the level;
     a subtree picks its executing worker's memo when it starts. Tables
     and memos die with this call. *)
  let fronts = Array.init workers (Smtlite.Solver.front solver) in
  let kmemos =
    Array.map (Prefix.memo kvalues (Kernel_enum.tally cfg stats)) fronts
  in
  let bmemos =
    Array.map (Prefix.memo bvalues (Block_enum.tally cfg stats)) fronts
  in
  let blocks = Block_enum.prepare cfg ~spec ~limits in
  let self () = Option.get (Deque.Pool.self pool) in
  (* Per-task completion accounting at item granularity: a task's
     pending count covers its root item plus every spawned subtree, and
     only a clean drain to zero advances the resume cursor. A crashed or
     budget-cut item taints its task, so resume re-runs it (emitted
     candidates are preloaded, so the re-run deduplicates instead of
     double-counting). *)
  let t_pending = Array.init n_tasks (fun _ -> Atomic.make 0) in
  let t_bad = Array.init n_tasks (fun _ -> Atomic.make false) in
  let item_done i =
    if Atomic.fetch_and_add t_pending.(i) (-1) = 1 then
      if not (Atomic.get t_bad.(i)) then
        match checkpoint with
        | Some ck -> Checkpoint.task_done ck ~piece ~task:i ~tasks_total:n_tasks
        | None -> ()
  in
  let run_body i body =
    if Atomic.get exhausted then Atomic.set t_bad.(i) true
    else
      try body () with
      | Prefix.Budget_exhausted ->
          Atomic.set t_bad.(i) true;
          Atomic.set exhausted true
      | exn ->
          Atomic.set t_bad.(i) true;
          record_crash i exn (Printexc.get_raw_backtrace ())
  in
  let task_phase i =
    match tasks.(i) with T_kernel -> "task.kernel" | T_class _ -> "task.root"
  in
  (* [spawn] handed to the enumerators for task [i]: publish a subtree
     continuation onto the calling worker's deque, which the pool takes
     only while some worker is hungry. The pending bump happens before
     the push — the spawning item is itself still pending, so the count
     can never drain to zero with this subtree in flight. *)
  let rec spawn_for i k =
    Atomic.incr t_pending.(i);
    if Deque.Pool.spawn pool (fun () -> subtree_item i k) then true
    else begin
      Atomic.decr t_pending.(i);
      false
    end
  and subtree_item i k =
    Fun.protect
      ~finally:(fun () -> item_done i)
      (fun () ->
        run_body i (fun () -> Obs.Profile.with_phase (task_phase i) k))
  in
  (* A root item drains its worker's buffer for the level when it ends
     (also when it raises), so the next task on that worker, at either
     level, checks the node budget against a registry that holds what
     this one counted. Continuations count on into whichever buffer
     their worker holds; those drain after the lanes join. *)
  let drained memos f =
    Fun.protect ~finally:(fun () -> Prefix.flush memos.(self ())) f
  in
  let root_item i () =
    Fun.protect
      ~finally:(fun () -> item_done i)
      (fun () ->
        run_body i (fun () ->
            match tasks.(i) with
            | T_kernel ->
                Obs.Profile.with_phase "task.kernel" (fun () ->
                    drained kmemos (fun () ->
                        Kernel_enum.search cfg ~spec
                          ~memo:(fun () -> kmemos.(self ()))
                          ~limits ~budget ~spawn:(spawn_for i) ~emit ()))
            | T_class cls ->
                Obs.Profile.with_phase "task.root" (fun () ->
                    drained bmemos (fun () ->
                        Block_enum.search_root blocks
                          ~memo:(fun () -> bmemos.(self ()))
                          ~budget ~spawn:(spawn_for i) ~emit cls))))
  in
  for i = 0 to n_tasks - 1 do
    if not skip.(i) then begin
      Atomic.set t_pending.(i) 1;
      Deque.Pool.seed pool (root_item i)
    end
  done;
  let stop () = Atomic.get exhausted in
  let run_item f = f () in
  (* A crash that escaped a worker's quarantine (in the loop itself) is
     reported once, after every lane has joined. *)
  (match
     lanes workers (fun id ->
         Deque.Pool.run_worker pool ~id ~stop ~run:run_item)
   with
  | exn :: _ ->
      let n = 1 + Atomic.fetch_and_add failures 1 in
      Obs.Metrics.add c_crash 1;
      Obs.Budget.note budget "worker.crash";
      Obs.Log.warn (fun m ->
          m "worker lane died outside task quarantine (%d total): %s" n
            (Printexc.to_string exn))
  | [] -> ());
  (* Every lane has joined: drain what continuations counted after the
     last root item on their worker. *)
  Array.iter Prefix.flush kmemos;
  Array.iter Prefix.flush bmemos;
  Obs.Metrics.add c_spawned (Deque.Pool.spawned pool);
  Obs.Metrics.add c_steals (Deque.Pool.steals pool);
  let candidates =
    Array.fold_left (fun acc (_, _, cands) -> !cands @ acc) [] shards
  in
  (candidates, Atomic.get exhausted, Atomic.get failures)

let run ?config ?registry ?(verify_trials = 2) ?(verify_all = false) ?budget
    ?checkpoint ?(piece = 0) ?progress ?prune_persist
    ~(device : Gpusim.Device.t) ~spec () =
  Obs.Profile.with_phase "search" @@ fun () ->
  let cfg =
    match config with Some c -> c | None -> Config.for_spec spec
  in
  let budget =
    match budget with Some b -> b | None -> Budget.of_config cfg
  in
  let solver = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
  (* Persistent prune cache: the hook attaches storage (and loads any
     prior envelope) before the first query; finalize stores it once. *)
  (match prune_persist with Some f -> f solver | None -> ());
  let stats = Stats.create ?registry () in
  let limits = Gpusim.Device.limits device in
  (* Live progress: wire in the funnel counters and seed the best-known
     cost with the spec's (the search never regresses below it). *)
  (match progress with
  | Some p ->
      Progress.attach_stats p stats;
      Progress.note_best p (Gpusim.Cost.cost device spec).Gpusim.Cost.total_us;
      Progress.set_phase p "enumerate"
  | None -> ());
  let on_pool pool =
    match progress with
    | Some p -> Progress.attach_stolen p (fun () -> Deque.Pool.steals pool)
    | None -> ()
  in
  let candidates, budget_exhausted, task_failures =
    Obs.Profile.with_phase "enumerate" (fun () ->
        generate cfg ~spec ~solver ~stats ~limits ~budget ?checkpoint ~piece
          ~on_pool ())
  in
  (* Branching factor for the prune-savings model: attempted extensions
     per accepted (recursed-into) prefix. *)
  (let s = Stats.snapshot stats in
   let accepted =
     s.Stats.expanded - s.Stats.shape_rejected - s.Stats.memory_rejected
     - s.Stats.pruned_abstract - s.Stats.canonical_rejected
     - s.Stats.duplicates
   in
   if s.Stats.expanded > 0 then
     Obs.Profile.note_branching
       (float_of_int s.Stats.expanded /. float_of_int (max 1 accepted)));
  Obs.Log.info (fun m ->
      m "search: %d candidate muGraph(s) generated%s%s"
        (List.length candidates)
        (if budget_exhausted then " (budget exhausted)" else "")
        (if task_failures = 0 then ""
         else Printf.sprintf " (%d task crash(es) quarantined)" task_failures));
  (* Cost first (cheap), then verify cheapest-first with a single random
     test, stopping at the first success unless [verify_all]. Cost ties
     break on the graph hash and then structurally, so the verification
     order — and therefore the winner — is independent of emission order
     (which varies with the number of enumeration workers and the steal
     schedule). The structural fallback matters: [Graph.hash] only
     traverses a bounded prefix, so distinct graphs can collide. *)
  (match progress with Some p -> Progress.set_phase p "cost" | None -> ());
  let costed =
    Obs.Profile.with_phase "cost" @@ fun () ->
    List.map
      (fun (x, c, _) -> (x, c))
      (List.sort
         (fun ((_, ga), a, ha) ((_, gb), b, hb) ->
           let c =
             Float.compare a.Gpusim.Cost.total_us b.Gpusim.Cost.total_us
           in
           if c <> 0 then c
           else
             let hc = Int.compare ha hb in
             if hc <> 0 then hc else Stdlib.compare ga gb)
         (List.map
            (fun (gid, g) ->
              ((gid, g), Gpusim.Cost.cost device g, Graph.hash g))
            candidates))
  in
  let finish gid g =
    Stats.add stats Stats.Verified 1;
    let g =
      if cfg.Config.use_thread_fusion then Thread_fuse.fuse_kernel g else g
    in
    let cost = Gpusim.Cost.cost device g in
    (match progress with
    | Some p -> Progress.note_best p cost.Gpusim.Cost.total_us
    | None -> ());
    (gid, { graph = g; cost })
  in
  let journal = Obs.Journal.active () in
  (* One verification session for the whole run: all candidates share the
     per-trial-seed random inputs and spec outputs (the spec result
     depends only on the trial seed), and the config flag selects the
     packed fast path or the boxed reference path. *)
  let session =
    Obs.Profile.with_phase "verify.setup" (fun () ->
        Verify.Random_test.make_session ~fast:cfg.Config.verify_fast_path ~spec
          ())
  in
  (* Verification runs quarantined too: a verifier crash on one candidate
     rejects that candidate (journaled as cand.crash) instead of sinking
     the whole run. *)
  let check ~trials ~cand g =
    Obs.Profile.with_phase "candidate" @@ fun () ->
    match Verify.Random_test.equivalent ~trials ~cand ~session ~spec g with
    | v -> v
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        Obs.Budget.note budget "verify.crash";
        Obs.Log.warn (fun m ->
            m "verifier crashed on candidate %d: %s" cand
              (Printexc.to_string exn));
        (match journal with
        | Some j ->
            Obs.Journal.emit j ~cand ~typ:"cand.crash"
              [
                ("phase", Obs.Jsonw.Str "verify");
                ("exn", Obs.Jsonw.Str (Printexc.to_string exn));
                ( "backtrace",
                  Obs.Jsonw.Str (Printexc.raw_backtrace_to_string bt) );
              ]
        | None -> ());
        Verify.Random_test.Rejected "verifier crash"
  in
  (* The deadline applies to verification as well as enumeration: a run
     that spent its whole budget enumerating still reports best-so-far
     (the spec at worst) instead of overshooting in the verify loop. *)
  let out_of_time () =
    if Obs.Budget.over_deadline budget || Obs.Budget.cancelled budget then begin
      Obs.Budget.note budget "deadline";
      true
    end
    else false
  in
  (* Sequential reference loop, and a parallel version for
     [num_workers > 1]: indices into the cost-sorted array are handed out
     through an atomic dispenser (so claims happen in cost order) and, in
     first-winner mode, a found-winner atomic holds the minimal passing
     index. A worker only skips an index when a strictly cheaper winner
     is already confirmed, so the minimal passing index is always fully
     processed — the parallel winner equals the sequential one. *)
  let sequential () =
    if verify_all then
      let rec all acc = function
        | [] -> List.rev acc
        | _ :: _ when out_of_time () -> List.rev acc
        | ((gid, g), _) :: rest -> (
            match check ~trials:verify_trials ~cand:gid g with
            | Verify.Random_test.Equivalent -> all (finish gid g :: acc) rest
            | Verify.Random_test.Not_equivalent _
            | Verify.Random_test.Rejected _ ->
                all acc rest)
      in
      all [] costed
    else
      let rec first = function
        | [] -> []
        | _ :: _ when out_of_time () -> []
        | ((gid, g), _) :: rest -> (
            match check ~trials:1 ~cand:gid g with
            | Verify.Random_test.Equivalent -> (
                (* confirm the winner with the full trial count *)
                match check ~trials:verify_trials ~cand:gid g with
                | Verify.Random_test.Equivalent -> [ finish gid g ]
                | Verify.Random_test.Not_equivalent _
                | Verify.Random_test.Rejected _ ->
                    first rest)
            | Verify.Random_test.Not_equivalent _
            | Verify.Random_test.Rejected _ ->
                first rest)
      in
      first costed
  in
  let parallel vworkers =
    (* Lazy metric handles are not domain-safe; force them here, in the
       spawning domain. *)
    Verify.Random_test.warm ();
    let arr = Array.of_list costed in
    let n = Array.length arr in
    let next = Atomic.make 0 in
    let run_lanes worker =
      List.iter
        (fun exn ->
          Obs.Budget.note budget "verify.crash";
          Obs.Log.warn (fun m ->
              m "verify lane died outside candidate quarantine: %s"
                (Printexc.to_string exn)))
        (lanes vworkers (fun _ -> worker ()))
    in
    if verify_all then begin
      let passed = Array.make n false in
      let worker () =
        let continue_ = ref true in
        while !continue_ do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n || out_of_time () then continue_ := false
          else
            let (gid, g), _ = arr.(i) in
            match check ~trials:verify_trials ~cand:gid g with
            | Verify.Random_test.Equivalent -> passed.(i) <- true
            | Verify.Random_test.Not_equivalent _
            | Verify.Random_test.Rejected _ ->
                ()
        done
      in
      run_lanes worker;
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if passed.(i) then
          let (gid, g), _ = arr.(i) in
          acc := finish gid g :: !acc
      done;
      !acc
    end
    else begin
      let winner = Atomic.make max_int in
      let worker () =
        let continue_ = ref true in
        while !continue_ do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n || i > Atomic.get winner || out_of_time () then
            continue_ := false
          else
            let (gid, g), _ = arr.(i) in
            match check ~trials:1 ~cand:gid g with
            | Verify.Random_test.Equivalent -> (
                match check ~trials:verify_trials ~cand:gid g with
                | Verify.Random_test.Equivalent ->
                    (* CAS-min: keep the cheapest confirmed index. All
                       indices below it were already claimed, so no
                       cheaper candidate can appear later. *)
                    let rec claim () =
                      let w = Atomic.get winner in
                      if i < w && not (Atomic.compare_and_set winner w i)
                      then claim ()
                    in
                    claim ();
                    continue_ := false
                | Verify.Random_test.Not_equivalent _
                | Verify.Random_test.Rejected _ ->
                    ())
            | Verify.Random_test.Not_equivalent _
            | Verify.Random_test.Rejected _ ->
                ()
        done
      in
      run_lanes worker;
      match Atomic.get winner with
      | w when w < n ->
          let (gid, g), _ = arr.(w) in
          [ finish gid g ]
      | _ -> []
    end
  in
  (match progress with Some p -> Progress.set_phase p "verify" | None -> ());
  let verified =
    Obs.Profile.with_phase "verify" @@ fun () ->
    let vworkers =
      min (max 1 cfg.Config.num_workers) (List.length costed)
    in
    if vworkers <= 1 then sequential () else parallel vworkers
  in
  (match progress with Some p -> Progress.set_phase p "finalize" | None -> ());
  Obs.Profile.with_phase "finalize" @@ fun () ->
  (* The input program always participates, so the optimizer never
     regresses. The spec carries id -1 (no journal lifecycle of its own). *)
  let spec_result =
    (-1, { graph = spec; cost = Gpusim.Cost.cost device spec })
  in
  let all =
    List.sort
      (fun (_, a) (_, b) ->
        Float.compare a.cost.Gpusim.Cost.total_us b.cost.Gpusim.Cost.total_us)
      (spec_result :: verified)
  in
  (* Cost attribution for the winner: one event per simulated kernel. *)
  (match (Obs.Journal.active (), all) with
  | Some j, (gid, r) :: _ -> Gpusim.Cost.journal_attribution ~cand:gid j r.cost
  | _ -> ());
  (* The search's one durable prune-cache write: a warm restart sees
     every decided query. *)
  Smtlite.Solver.flush_persist solver;
  (match checkpoint with
  | Some ck ->
      (* solver cache stats ride along in the checkpoint meta so a
         resumed run's report can account for pre-interrupt work *)
      let sv = Smtlite.Solver.stats solver in
      Checkpoint.set_meta ck
        [
          ( "solver",
            Obs.Jsonw.Obj
              [
                ("queries", Obs.Jsonw.Int sv.Smtlite.Solver.queries);
                ("cache_hits", Obs.Jsonw.Int sv.Smtlite.Solver.cache_hits);
                ("accepted", Obs.Jsonw.Int sv.Smtlite.Solver.accepted);
                ("solve_time_s", Obs.Jsonw.Float sv.Smtlite.Solver.solve_time_s);
                ("disk_hits", Obs.Jsonw.Int sv.Smtlite.Solver.disk_hits);
                ("disk_entries", Obs.Jsonw.Int sv.Smtlite.Solver.disk_entries);
              ] );
        ];
      Checkpoint.save ck
  | None -> ());
  {
    best = (match all with [] -> None | (_, r) :: _ -> Some r);
    verified = List.map snd all;
    generated = List.length candidates;
    stats = Stats.snapshot stats;
    metrics = Obs.Metrics.snapshot (Stats.registry stats);
    solver = Smtlite.Solver.stats solver;
    budget_exhausted;
    task_failures;
    degraded = Obs.Budget.reasons budget;
  }

let search_time ?config ?(device = Gpusim.Device.a100)
    ?(stats = Stats.create ()) ~spec () =
  let cfg =
    match config with Some c -> c | None -> Config.for_spec spec
  in
  let solver = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
  let limits = Gpusim.Device.limits device in
  let budget = Budget.of_config cfg in
  let t0 = Unix.gettimeofday () in
  let _, exhausted, _ =
    generate cfg ~spec ~solver ~stats ~limits ~budget ()
  in
  (Unix.gettimeofday () -. t0, exhausted)
