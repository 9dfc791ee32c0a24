open Mugraph

type result = {
  graph : Graph.kernel_graph;
  cost : Gpusim.Cost.graph_cost;
}

type outcome = {
  best : result option;
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

(* A search's domains run under the journal context (the serving
   tier's request id) and the profile phase path of the code that
   started them, so a request's id survives the fan-out and its search
   events stay filterable by rid, and a worker's task phases land under
   the starting phase ([search/enumerate/task.kernel]) instead of
   floating at the root of a fresh stack. [capture ()] takes both now
   and returns a runner that installs them around a thunk on whichever
   domain calls it, and puts back what that domain had. *)
let capture () =
  let ctx = Obs.Journal.context () in
  let ppath = Obs.Profile.saved_path () in
  fun f ->
    let saved = Obs.Journal.context () in
    Obs.Journal.set_context ctx;
    Fun.protect
      ~finally:(fun () -> Obs.Journal.set_context saved)
      (fun () -> Obs.Profile.with_base ppath f)

let spawner () =
  let under = capture () in
  fun f -> Domain.spawn (fun () -> under f)

(* Starting a helper domain and joining it costs a median 0.07–0.26 ms
   on a 2-core VM (OCaml 5.1.1; 400 spawn+join pairs of an empty
   domain, three runs), with one pair in ten past 4 ms; a lanes call
   that ends sooner than that is cheaper done by lane 0 alone. So lane
   0 works alone for this long before it buys help (ski rental). *)
let helper_after_s = 1e-3

module Lanes = struct
  type t = {
    n : int;
    spawn : (unit -> unit) -> unit Domain.t;
    mutable t0 : float; (* when [run] began; infinity before *)
    mutable lane : int -> unit;
    mutable helpers : unit Domain.t list;
    started : bool Atomic.t;
  }

  let create n =
    {
      n = max 1 n;
      spawn = spawner ();
      t0 = Float.infinity;
      lane = ignore;
      helpers = [];
      started = Atomic.make (n <= 1);
    }

  (* Only lane 0 can find [started] false: helpers exist only once it
     is true. A helper the runtime refuses to start (it caps the number
     of domains) leaves its deque to the others' thieves. *)
  let poll t =
    if
      (not (Atomic.get t.started))
      && Unix.gettimeofday () -. t.t0 >= helper_after_s
    then begin
      Atomic.set t.started true;
      let lane = t.lane in
      let rec start i =
        if i < t.n then
          match t.spawn (fun () -> lane i) with
          | d ->
              t.helpers <- d :: t.helpers;
              start (i + 1)
          | exception exn ->
              Obs.Log.warn (fun m ->
                  m "lane %d not started: %s" i (Printexc.to_string exn))
      in
      start 1
    end

  let started t = List.length t.helpers

  (* Salvage-then-report: every started domain is joined before
     anything is decided, so one lane's death (lane 0's included) never
     discards what the others did. Once [f 0] has returned, no helper
     starts. *)
  let run t f =
    t.lane <- f;
    t.t0 <- Unix.gettimeofday ();
    let own = match f 0 with () -> [] | exception exn -> [ exn ] in
    Atomic.set t.started true;
    own
    @ List.filter_map
        (fun d ->
          match Domain.join d with () -> None | exception exn -> Some exn)
        (List.rev t.helpers)
end

(* Run the enumerators over all tasks, collecting raw candidates. The
   enumerators deduplicate (a try that recomputes an existing value is a
   [Tally.Duplicate] reject); emitted graphs are not compared again.
   Tasks seed a work-stealing pool (one Chase–Lev deque per lane); at
   or below [steal_depth_cutoff], and only while some worker is
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
let generate (cfg : Config.t) ~spec ~solver ~stats ~limits ~budget ?checkpoint
    ?(piece = 0) ?on_pool ?(on_candidate = fun _ _ -> ()) () =
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
  let c_lanes =
    Obs.Metrics.counter reg ~help:"helper domains started by on-demand lanes"
      "search.lanes.started"
  in
  let cands_lock = Mutex.create () and cands = ref [] in
  (* Candidate ids come from the journal's id counter, unique across the
     run's searches, so `explain` resolves any of them. When the
     journal is off, ids still flow (from a shared counter) but no events
     are written. *)
  let journal = Obs.Journal.active () in
  let next_gid = Atomic.make 0 in
  let emit g =
    let gid =
      match journal with
      | Some j ->
          let gid = Obs.Journal.fresh_id j in
          Obs.Journal.emit j ~cand:gid ~typ:"graph.emit"
            [ ("knodes", Obs.Jsonw.Int (Array.length g.Graph.knodes)) ];
          gid
      | None -> 1 + Atomic.fetch_and_add next_gid 1
    in
    Mutex.protect cands_lock (fun () -> cands := (gid, g) :: !cands);
    on_candidate gid g
  in
  (* Resume: the saved incumbent is emitted like a fresh candidate, so it
     gets a new id and [on_candidate] verifies it again (a file on disk
     is outside input); a re-run task's copy of it is one more candidate,
     whose key equals the incumbent's, so it is not verified again.
     It counts as one try that completed, so the funnel holds and the
     stats' candidates include it as [generated] does. No lane exists
     yet. *)
  (match checkpoint with
  | Some ck ->
      Option.iter
        (fun (_, g) ->
          Stats.add stats Stats.Expanded 1;
          Stats.add stats Stats.Candidates 1;
          emit g)
        (List.assoc_opt piece (Checkpoint.incumbents ck))
  | None -> ());
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
  (* A lane's solver front, and beside it the lane's extension memo for
     each level, over the level's value table, with the lane's funnel
     buffer for the level, are made by the lane the first time it
     needs them, so a lane that never starts costs nothing; a subtree
     picks its executing lane's memo when it starts. Only the lane
     writes its slots, and this domain reads them after the lanes join.
     Tables and memos die with this call. *)
  let ktally = Kernel_enum.tally cfg stats
  and btally = Block_enum.tally cfg stats in
  let kmemos = Array.make workers None and bmemos = Array.make workers None in
  let memo_of memos values tally i =
    match memos.(i) with
    | Some m -> m
    | None ->
        let m = Prefix.memo values tally (Smtlite.Solver.front solver i) in
        memos.(i) <- Some m;
        m
  in
  let self () = Option.get (Deque.Pool.self pool) in
  (* The block level's engines and interned input views, made only for
     a search that has root classes. *)
  let blocks =
    if classes = [] then None
    else
      Some
        (Block_enum.prepare cfg ~spec ~limits ~values:bvalues
           ~memo:(fun () -> memo_of bmemos bvalues btally (self ()))
           ~budget)
  in
  (* Lane 0 polls between pool items and at every subtree offer, the
     safe points where starting the helpers cannot split an item. *)
  let lanes = Lanes.create workers in
  (* Per-task completion accounting at item granularity: a task's
     pending count covers its root item plus every spawned subtree, and
     only a clean drain to zero advances the resume cursor. A crashed or
     budget-cut item taints its task, so resume re-runs it. *)
  let t_pending = Array.init n_tasks (fun _ -> Atomic.make 0) in
  let t_bad = Array.init n_tasks (fun _ -> Atomic.make false) in
  let item_done i =
    if Atomic.fetch_and_add t_pending.(i) (-1) = 1 then
      if not (Atomic.get t_bad.(i)) then
        match checkpoint with
        | Some ck -> Checkpoint.task_done ck ~piece ~task:i
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
    Lanes.poll lanes;
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
    Fun.protect
      ~finally:(fun () -> Option.iter Prefix.flush memos.(self ()))
      f
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
                          ~memo:(fun () ->
                            memo_of kmemos kvalues ktally (self ()))
                          ~limits ~budget ~spawn:(spawn_for i) ~emit ()))
            | T_class cls ->
                Obs.Profile.with_phase "task.root" (fun () ->
                    drained bmemos (fun () ->
                        Block_enum.search_root (Option.get blocks)
                          ~spawn:(spawn_for i) ~emit cls))))
  in
  for i = 0 to n_tasks - 1 do
    if not skip.(i) then begin
      Atomic.set t_pending.(i) 1;
      Deque.Pool.seed pool (root_item i)
    end
  done;
  let stop () = Atomic.get exhausted in
  let run_item f =
    Lanes.poll lanes;
    f ()
  in
  (* A crash that escaped a worker's quarantine (in the loop itself) is
     reported once, after every lane has joined. *)
  (match
     Lanes.run lanes (fun id ->
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
  Array.iter (Option.iter Prefix.flush) kmemos;
  Array.iter (Option.iter Prefix.flush) bmemos;
  Obs.Metrics.add c_spawned (Deque.Pool.spawned pool);
  Obs.Metrics.add c_steals (Deque.Pool.steals pool);
  Obs.Metrics.add c_lanes (Lanes.started lanes);
  (!cands, Atomic.get exhausted, Atomic.get failures)

let run ?config ?registry ?(verify_trials = 2) ?budget ?checkpoint
    ?(piece = 0) ?progress ~(device : Gpusim.Device.t) ~spec () =
  Obs.Profile.with_phase "search" @@ fun () ->
  let cfg =
    match config with Some c -> c | None -> Config.for_spec spec
  in
  let budget =
    match budget with Some b -> b | None -> Budget.of_config cfg
  in
  let solver = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
  let stats = Stats.create ?registry () in
  let limits = Gpusim.Device.limits device in
  (* The input program always participates, so the optimizer never
     regresses. The spec carries id -1 (no journal lifecycle of its own). *)
  let spec_result =
    (-1, { graph = spec; cost = Gpusim.Cost.cost device spec })
  in
  let note_best us =
    match progress with Some p -> Progress.note_best p us | None -> ()
  in
  (* Live progress: wire in the funnel counters and seed the best-known
     cost with the spec's (the search never regresses below it). *)
  (match progress with
  | Some p ->
      Progress.attach_stats p stats;
      Progress.set_phase p "enumerate"
  | None -> ());
  note_best (snd spec_result).cost.Gpusim.Cost.total_us;
  let on_pool pool =
    match progress with
    | Some p -> Progress.attach_stolen p (fun () -> Deque.Pool.steals pool)
    | None -> ()
  in
  let journal = Obs.Journal.active () in
  (* One verification session for the whole run: all candidates share the
     per-trial-seed random inputs and spec outputs (the spec result
     depends only on the trial seed), and the config flag selects the
     packed fast path or the boxed reference path. Trials run on the
     enumeration lanes, so the verifier's lazy metric handles are forced
     here, before any helper can start. *)
  let session =
    Obs.Profile.with_phase "verify.setup" (fun () ->
        Verify.Random_test.make_session ~fast:cfg.Config.verify_fast_path ~spec
          ())
  in
  Verify.Random_test.warm ();
  (* Verification runs quarantined too: a verifier crash on one candidate
     rejects that candidate (journaled as cand.crash) instead of sinking
     the whole run. *)
  let passes ~trials ~cand g =
    Obs.Profile.with_phase "candidate" @@ fun () ->
    match Verify.Random_test.equivalent ~trials ~cand ~session ~spec g with
    | Verify.Random_test.Equivalent -> true
    | Verify.Random_test.Not_equivalent _ | Verify.Random_test.Rejected _ ->
        false
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
        false
  in
  (* Verify on emit. Candidates are ordered by cost-model time, then
     graph hash, then structure (compared lexicographically; the
     structural fallback matters, since [Graph.hash] only traverses a
     bounded prefix and distinct graphs can collide). The incumbent is
     the least candidate confirmed so far, and a candidate is verified
     only when it comes before it. The least passing candidate comes
     before whatever incumbent exists when it is emitted, so a complete
     search ends holding it whatever the emission order (which varies
     with the worker count and the steal schedule), and a search cut
     short holds the best it confirmed. Trial seeds depend only on the
     trial's index and the verifier stops at the first mismatch, so one
     call with [verify_trials] trials gives the verdict of the paper's
     single random test followed by a confirmation (§7), and a failing
     candidate costs one trial. A checkpoint records each new incumbent
     as it is installed; the next task completion saves it. *)
  let incumbent = Atomic.make None and install = Mutex.create () in
  let before key = function
    | None -> true
    | Some (_, k) -> Stdlib.compare key k < 0
  in
  let on_candidate gid g =
    let us = (Gpusim.Cost.cost device g).Gpusim.Cost.total_us in
    let key = (us, Graph.hash g, g) in
    if
      before key (Atomic.get incumbent)
      && passes ~trials:(max 1 verify_trials) ~cand:gid g
    then
      Mutex.protect install (fun () ->
          if before key (Atomic.get incumbent) then begin
            Atomic.set incumbent (Some (gid, key));
            Option.iter
              (fun ck -> Checkpoint.set_incumbent ck ~piece ~gid g)
              checkpoint;
            note_best us
          end)
  in
  let candidates, budget_exhausted, task_failures =
    Obs.Profile.with_phase "enumerate" (fun () ->
        generate cfg ~spec ~solver ~stats ~limits ~budget ?checkpoint ~piece
          ~on_pool ~on_candidate ())
  in
  Obs.Log.info (fun m ->
      m "search: %d candidate muGraph(s) generated%s%s"
        (List.length candidates)
        (if budget_exhausted then " (budget exhausted)" else "")
        (if task_failures = 0 then ""
         else Printf.sprintf " (%d task crash(es) quarantined)" task_failures));
  (match progress with Some p -> Progress.set_phase p "finalize" | None -> ());
  Obs.Profile.with_phase "finalize" @@ fun () ->
  (* The thread-fused incumbent wins only when strictly cheaper than the
     spec. *)
  let gid, best =
    match Atomic.get incumbent with
    | None -> spec_result
    | Some (gid, (_, _, g)) ->
        Stats.add stats Stats.Verified 1;
        let g =
          if cfg.Config.use_thread_fusion then Thread_fuse.fuse_kernel g else g
        in
        let cost = Gpusim.Cost.cost device g in
        note_best cost.Gpusim.Cost.total_us;
        if cost.Gpusim.Cost.total_us < (snd spec_result).cost.Gpusim.Cost.total_us
        then (gid, { graph = g; cost })
        else spec_result
  in
  (* Cost attribution for the winner: one event per simulated kernel. *)
  (match journal with
  | Some j -> Gpusim.Cost.journal_attribution ~cand:gid j best.cost
  | None -> ());
  Option.iter Checkpoint.save checkpoint;
  {
    best = Some best;
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
