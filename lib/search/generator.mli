(** The expression-guided muGraph generator (paper §4, Algorithm 1),
    end to end: enumerate candidate muGraphs (kernel-level rewrites and
    single-custom-kernel block graphs), verify them as they are emitted
    against the specification with the probabilistic equivalence
    verifier (§5), keeping the cheapest under the GPU cost model, and
    apply rule-based thread fusion (§4.2) to the winner.

    Root configurations are distributed over [Config.num_workers]
    lanes (the paper's multi-threaded search, Table 5): lane 0 is the
    calling domain and the others are helper domains it starts only once
    enumeration has run long enough to pay for them ({!Lanes}); a
    candidate is verified on the lane that emitted it. *)

open Mugraph

type result = {
  graph : Graph.kernel_graph;  (** verified, thread-fused *)
  cost : Gpusim.Cost.graph_cost;
}

type outcome = {
  best : result option;
      (** the verified winner, or the spec when no candidate verified
          cheaper; never [None] *)
  generated : int;  (** candidate muGraphs emitted by the enumerators *)
  stats : Stats.snapshot;
  metrics : Obs.Metrics.snapshot;
      (** full snapshot of the search's own metrics registry: the
          enumerators' per-level counters, from which [stats] is
          derived, plus the candidate, verified, scheduler and crash
          counters *)
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

val capture : unit -> (unit -> 'a) -> 'a
(** [capture ()] takes the caller's journal context (the serving tier's
    request id) and profile phase path; the runner it returns runs a
    thunk under them on whichever domain calls it, and then restores
    that domain's own. Helper lanes start under the context of the
    lanes call, and [Service.Server] runs each search on a long-lived
    slot domain under the context of the request that asked for it. *)

val helper_after_s : float
(** How long a lanes call runs on lane 0 alone before it may start its
    helpers: 1 ms, about what starting and joining one domain costs (a
    median of 0.07–0.26 ms on a 2-core VM, one time in ten past 4 ms). *)

(** Lanes on demand. A lanes call of [n] lanes runs lane 0 on the
    calling domain; lanes 1 .. n-1 are helper domains, started under {!capture}, that
    lane 0 starts, all at once and at most once, at the first {!poll}
    that comes {!helper_after_s} or more after {!create} (a ski-rental
    rule: work alone until the work done equals the price of help). So
    a call that ends sooner starts no domain, and a 1-lane call never
    does. Lane 0 polls only at its safe points: before each pool item
    and at each subtree offer. Once started, helpers steal work as any
    lane does. A search of [num_workers = w] starts 0 or [w - 1]
    helpers and counts them in [search.lanes.started].

    Lane 0 holds the calling domain's lock while it works. A caller
    whose domain other systhreads share must not run a search there:
    they would wait for the systhreads tick (up to 50 ms) whenever they
    want to run. [Service.Server] therefore calls {!run} on a search
    slot's domain, which it starts at the slot's first search and keeps
    for the next ones, and its handler waits on a condition variable,
    which releases the lock. *)
module Lanes : sig
  type t

  val create : int -> t
  (** [create n] makes a call of [max 1 n] lanes and captures the
      caller's journal context and phase path for the helpers. Nothing
      runs until {!run}, whose start is the call's clock. *)

  val poll : t -> unit
  (** A safe point of lane 0: starts the helpers if they have not
      started and {!run} began {!helper_after_s} ago or more. Any lane
      may call it; only lane 0 can find the helpers unstarted. *)

  val run : t -> (int -> unit) -> exn list
  (** [run t f] runs [f 0] on the calling domain, and [f i] on helper
      [i] once {!poll} starts the helpers. It joins every started
      domain before it returns, whatever any lane did, and returns the
      exceptions that escaped lanes, lane 0's first, for the caller to
      report. No helper starts after [f 0] returns. *)

  val started : t -> int
  (** Helper domains started: 0 or [n - 1] (fewer only if the runtime
      refused a domain). *)
end

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
  ?on_candidate:(int -> Graph.kernel_graph -> unit) ->
  unit ->
  (int * Graph.kernel_graph) list * bool * int
(** The raw enumeration stage of {!run}: seed the kernel task and one
    task per root class ({!Block_enum.root_class}) onto a work-stealing
    pool of [num_workers] lanes (see {!Lanes}) and drain it, returning
    the [(gid, graph)] candidates plus whether the budget was exhausted
    and how many items crashed. Deduplication is the enumerators'
    (they reject a try that recomputes an existing value); the emitted
    graphs are not compared again, so a resumed incumbent that a re-run
    task finds again is emitted twice. A task's enumerator hands a kept shallow
    child (depth [<= steal_depth_cutoff], two or more operator levels
    below it) to the pool only while some worker is hungry — found
    nothing to pop or steal ({!Deque.Pool.spawn}); otherwise it searches
    the child inline, in generation order. So a one-worker search never
    spawns, and the many root classes keep a busy pool fed without
    subtrees. The candidate {e set} is independent of the
    worker count and steal schedule (gids and list order are not).
    [on_pool] runs once with the freshly created pool — the hook the
    serving tier uses to surface live steal counts. [on_candidate gid g]
    runs once per candidate, on the lane that emitted it and
    outside any lock, so concurrently on several lanes; a checkpoint's
    incumbent is emitted, and so goes through it, before any lane
    starts. {!run} verifies
    there. Exposed for {!run}, {!search_time} and the determinism
    tests. *)

val run :
  ?config:Config.t ->
  ?verify_trials:int ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.t ->
  ?piece:int ->
  ?progress:Progress.t ->
  device:Gpusim.Device.t ->
  spec:Graph.kernel_graph ->
  unit ->
  outcome
(** [config] defaults to [Config.for_spec spec]. The spec itself is
    always included as a candidate, so [best] is never worse than the
    input program.

    Candidates are verified as {!generate} emits them, on the lane that
    emitted them. The run keeps an incumbent: the least candidate
    confirmed so far under the order (cost-model time, [Graph.hash],
    structure). A candidate that comes before it is verified with
    [verify_trials] trials (at least 1) and replaces it if it passes;
    any other candidate is only costed. The verifier stops at the first
    failing trial, so a candidate that fails costs one random test, as
    in the paper's implementation (§7). A complete search therefore ends with the
    least passing candidate, whatever the worker count; [stats.verified]
    is 1 when the run holds an incumbent, 0 otherwise. The incumbent is
    thread-fused and wins if it is then strictly cheaper than the spec.

    [budget] (default: derived from the config's time/node budgets) is
    polled by the enumerators and — when threaded through {!Opt} — the
    ILP and memory planners. A search cut by its deadline, its node
    budget or cancellation returns the incumbent it holds (the spec at
    worst), with the reason recorded in [degraded]. A verification
    already under way when the deadline passes runs to its end.
    [checkpoint]/[piece] record the task cursor and each new incumbent,
    save them at every task completion and at the end, and resume from
    them (see {!Checkpoint}).

    [progress] attaches a {!Progress} cell the run keeps current (phase,
    funnel counters, best cost so far, lowered with each new incumbent)
    so an observer on another thread — e.g. the serving tier's streamer
    — can sample it lock-free. When the ambient {!Obs.Profile} is
    enabled, the run attributes its wall time to a [search] phase tree
    ([verify.setup]/[enumerate]/[finalize], with one [task.kernel] or
    [task.root] phase per root task, a [candidate] phase per
    verification attempt under the task that emitted it); with its
    timeline on, each is also a Chrome trace span. *)

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
