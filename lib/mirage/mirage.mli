(** The Mirage superoptimizer, end to end (paper Fig. 1):

    input program → LAX partitioning → expression-guided muGraph
    generation → probabilistic equivalence verification → muGraph
    optimization (layouts, scheduling, memory planning) → best verified
    plan per LAX piece. *)

open Mugraph

module Partition = Partition
(** LAX partitioning (re-exported: this module is the library root). *)

type piece_result = {
  piece : Partition.piece;
  outcome : Search.Generator.outcome option;  (** None for non-LAX pieces *)
  best : Graph.kernel_graph;  (** the chosen plan (input if no better) *)
  best_cost : Gpusim.Cost.graph_cost;
  input_cost : Gpusim.Cost.graph_cost;
  opt_report : Opt.Optimizer.report;  (** §6 passes on the chosen plan *)
}

type report = {
  device : Gpusim.Device.t;
  partition : Partition.t;
  pieces : piece_result list;
  input_us : float;
  optimized_us : float;
  speedup : float;
}

val superoptimize :
  ?config:Search.Config.t ->
  ?verify_trials:int ->
  ?budget:Search.Budget.t ->
  ?checkpoint:Search.Checkpoint.t ->
  device:Gpusim.Device.t ->
  Graph.kernel_graph ->
  report
(** Superoptimize every LAX piece of the program. The returned plans are
    verified equivalent to their pieces; non-LAX pieces pass through
    unchanged. Never slower than the input program under the cost
    model.

    [budget] is shared across all pieces and every phase (enumeration,
    verification, ILP layout solve, memory planning): one wall deadline
    for the whole invocation, with degradations recorded per phase.
    [checkpoint] persists search progress per piece (pieces are keyed by
    partition id) for [--resume]. *)

val summary : report -> string
