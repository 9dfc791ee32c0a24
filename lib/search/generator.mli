(** The expression-guided muGraph generator (paper §4, Algorithm 1),
    end to end: enumerate candidate muGraphs (kernel-level rewrites and
    single-custom-kernel block graphs), verify each candidate against the
    specification with the probabilistic equivalence verifier (§5), apply
    rule-based thread fusion (§4.2), and rank the survivors with the GPU
    cost model.

    Root configurations are distributed over [Config.num_workers]
    lanes (the paper's multi-threaded search, Table 5): lane 0 is the
    calling domain and the others are spawned domains ({!lanes}), for
    the enumeration pool and for parallel verification alike. *)

open Mugraph

type result = {
  graph : Graph.kernel_graph;  (** verified, thread-fused *)
  cost : Gpusim.Cost.graph_cost;
}

type outcome = {
  best : result option;  (** lowest simulated time *)
  verified : result list;  (** sorted by increasing cost *)
  generated : int;  (** candidate muGraphs emitted by the enumerators *)
  stats : Stats.snapshot;
  metrics : Obs.Metrics.snapshot;
      (** full snapshot of the search's metrics registry: the funnel
          counters plus the enumerators' per-depth histograms *)
  solver : Smtlite.Solver.stats;
  budget_exhausted : bool;
  task_failures : int;
      (** enumeration tasks that crashed and were quarantined (each is
          journaled as [cand.crash] with a backtrace); the search aborts
          only past [Config.max_task_failures] *)
  degraded : string list;
      (** budget degradation reasons accumulated during the run
          (["deadline"], ["node_budget"], ["worker.crash"], …); empty for
          a clean run *)
}

val spawn : (unit -> 'a) -> 'a Domain.t
(** [spawn f] runs [f] on a new domain that starts with the caller's
    journal context (the serving tier's request id) and profile phase
    path. Every lane but lane 0 starts this way. *)

val lanes : int -> (int -> unit) -> exn list
(** [lanes n f] runs [f 0] on the calling domain and [f 1] .. [f (n-1)]
    on [n - 1] domains from {!spawn} (none when [n <= 1]). It joins
    every domain before it returns, whatever any lane did, and returns
    the exceptions that escaped lanes, lane 0's first, for the caller to
    report. The enumeration pool and both parallel verify loops run on
    it, so a search of [num_workers = w] starts [w - 1] domains.

    Lane 0 holds the calling domain's lock while it works. A caller
    whose domain other systhreads share must not run a search there:
    they would wait for the systhreads tick (up to 50 ms) whenever they
    want to run. [Service.Server] therefore calls {!run} on a domain of
    its own from {!spawn} and waits in [Domain.join], which releases the
    lock. *)

val generate :
  Config.t ->
  spec:Graph.kernel_graph ->
  solver:Smtlite.Solver.t ->
  stats:Stats.t ->
  limits:Memory.limits ->
  budget:Budget.t ->
  ?checkpoint:Checkpoint.t ->
  ?piece:int ->
  ?on_pool:(Deque.Pool.t -> unit) ->
  unit ->
  (int * Graph.kernel_graph) list * bool * int
(** The raw enumeration stage of {!run}: seed the kernel task and one
    task per root class ({!Block_enum.root_class}) onto a work-stealing
    pool of [num_workers] lanes (see {!lanes}) and drain it, returning
    the deduplicated [(gid, graph)] candidates plus whether the budget
    was exhausted and
    how many items crashed. A task's enumerator hands a kept shallow
    child (depth [<= steal_depth_cutoff], two or more operator levels
    below it) to the pool only while some worker is hungry — found
    nothing to pop or steal ({!Deque.Pool.spawn}); otherwise it searches
    the child inline, in generation order. So a one-worker search never
    spawns, and the many root classes keep a busy pool fed without
    subtrees. The candidate {e set} is independent of the
    worker count and steal schedule (gids and list order are not).
    [on_pool] runs once with the freshly created pool — the hook the
    serving tier uses to surface live steal counts. Exposed for {!run},
    {!search_time} and the determinism tests. *)

val run :
  ?config:Config.t ->
  ?registry:Obs.Metrics.t ->
  ?verify_trials:int ->
  ?verify_all:bool ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.t ->
  ?piece:int ->
  ?progress:Progress.t ->
  ?prune_persist:(Smtlite.Solver.t -> unit) ->
  device:Gpusim.Device.t ->
  spec:Graph.kernel_graph ->
  unit ->
  outcome
(** [config] defaults to [Config.for_spec spec]. The spec itself is
    always included as a candidate, so [best] is never worse than the
    input program.

    [registry] backs the search's counters and histograms (default: a
    fresh registry per run; pass a shared one to accumulate across
    runs). When the ambient {!Obs.Profile} is enabled, the run records
    a [search] phase with [enumerate]/[cost]/[verify] sub-phases (one
    [task.kernel] or [task.root] phase per root task, one [candidate]
    phase per verification attempt); with its timeline on, each is also
    a Chrome trace span.

    Candidates are verified in ascending cost-model order with a single
    random test each; the winner then receives [verify_trials] further
    trials — mirroring the paper's implementation (§7). With
    [verify_all] every candidate is fully verified and reported (used by
    tests and small problems).

    [budget] (default: derived from the config's time/node budgets) is
    polled by the enumerators, the verification loop, and — when threaded
    through {!Opt} — the ILP and memory planners; hitting the deadline in
    any phase cleanly returns best-so-far with the reason recorded in
    [degraded]. [checkpoint]/[piece] enable periodic progress persistence
    and resume (see {!Checkpoint}).

    [prune_persist] runs once on the freshly created solver, before any
    query — the place to {!Smtlite.Solver.attach_persist} an on-disk
    prune-query cache (e.g. via [Service.Prune_store]). The run flushes
    the solver's write-behind batch at finalize.

    [progress] attaches a {!Progress} cell the run keeps current (phase,
    funnel counters, best cost so far) so an observer on another thread —
    e.g. the serving tier's streamer — can sample it lock-free. When the
    ambient {!Obs.Profile} is enabled, the run additionally attributes
    its wall time to a [search] phase tree
    ([enumerate]/[cost]/[verify.setup]/[verify]/[finalize], with
    per-task and per-candidate children and prune-rule fire counts). *)

val search_time :
  ?config:Config.t ->
  ?device:Gpusim.Device.t ->
  ?stats:Stats.t ->
  spec:Graph.kernel_graph ->
  unit ->
  float * bool
(** Generation time only (no verification/costing) in seconds, plus
    whether the budget ran out — the measurement reported in Table 5.
    Memory limits come from [device] (default A100), matching {!run}.
    The funnel counts land in [stats] (default: a fresh one). *)
