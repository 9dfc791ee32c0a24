(* The abstract-expression prune check (paper §5: a prefix survives only
   if its abstract expression is a subexpression of some goal output
   under the axioms A_eq ∪ A_sub). *)

let check (cfg : Config.t) ~front nf =
  cfg.Config.use_abstract_pruning && not (Smtlite.Solver.check_front front nf)
