(** Search configuration for the expression-guided muGraph generator.

    The defaults mirror the paper (§8.1): up to 5 operators in the kernel
    graph and up to 11 in each block graph. The two boolean switches are
    the ablation axes of Table 5: abstract-expression pruning and
    multi-threaded search. *)

type t = {
  max_kernel_ops : int;  (** paper default 5 *)
  max_block_ops : int;  (** paper default 11; Table 5 sweeps 5..11 *)
  grid_candidates : int array list;
      (** grid dimension vectors to consider for custom kernels *)
  forloop_candidates : int array list;
      (** for-loop trip-count vectors ([||] = no loop) *)
  block_op_menu : Mugraph.Op.prim list;
      (** operator types the block-graph enumerator may instantiate;
          [Sum] entries are placeholders — the enumerator instantiates
          full reductions along each dimension *)
  kernel_op_menu : Mugraph.Op.prim list;
  use_abstract_pruning : bool;  (** Table 5 column "w/o abstract expr" *)
  use_thread_fusion : bool;  (** §4.2 rule-based thread graphs *)
  num_workers : int;
      (** search lanes; defaults to the machine's recommended domain
          count capped at 8. Lane 0 is the calling domain and the rest
          are helper domains, so [n] workers start [n - 1] domains, and
          only for a stage that runs past 1 ms ({!Generator.Lanes}).
          1 = sequential (Table 5 "w/o multithreading") *)
  node_budget : int;  (** hard cap on expanded prefixes, 0 = unlimited *)
  time_budget_s : float;  (** wall-clock cap, 0 = unlimited *)
  max_task_failures : int;
      (** supervised workers: quarantined task crashes tolerated before
          the whole search aborts (default 8) *)
  verify_fast_path : bool;
      (** verify over the packed finite-field representation with
          spec-output memoization (default). [false] selects the boxed
          {!Ffield.Fpair} reference path — same verdicts, much slower —
          kept for verdict-equivalence testing and debugging *)
  steal_depth_cutoff : int;
      (** enumeration depth (ops placed) at or below which a subtree is
          published to the work-stealing pool instead of recursed
          inline, provided at least two operator levels lie below it (a
          child one level from the bottom is always searched inline)
          and some worker is hungry for work ({!Deque.Pool.spawn}). 0
          disables subtree spawning (coarse per-task parallelism only);
          has no effect on which candidates are found *)
}

val default : t

val default_workers : int
(** [min (Domain.recommended_domain_count ()) 8], at least 1 — the
    resolved default of [num_workers]. *)

val for_spec : ?base:t -> Mugraph.Graph.kernel_graph -> t
(** Derive the operator menus from the specification: unary operators
    appear in the menu only if the spec uses them (searching for [exp]
    when the goal has none is pure waste — the pruning would reject every
    such prefix anyway, but not generating them is cheaper). Grid and
    for-loop candidates are derived from divisors of the spec's input
    dimensions when not supplied in [base]. *)

val to_json : t -> Obs.Jsonw.t
(** A config fingerprint for run reports: every field rendered as JSON
    (operator menus as name lists, grid/loop candidates as arrays), so
    two runs can be compared field by field with [mirage_cli diff]. *)

val result_irrelevant_keys : string list
(** Field names of {!to_json} that cannot change which muGraph the search
    returns (budgets, worker count, crash tolerance, verify path choice).
    A result cache must ignore exactly these. *)

val search_relevant_json : t -> Obs.Jsonw.t
(** {!to_json} with {!result_irrelevant_keys} removed — the part of the
    config a fingerprint-keyed result cache keys on. *)
