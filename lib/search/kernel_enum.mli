(** Kernel-level enumeration: sequences of pre-defined kernel operators
    whose outputs match the specification — the TASO/PET-style algebraic
    slice of Mirage's search space (no custom kernels). Shares the
    canonical-rank discipline and abstract-expression pruning with the
    block enumerator. *)

open Mugraph

val search :
  Config.t ->
  spec:Graph.kernel_graph ->
  front:(unit -> Smtlite.Solver.front) ->
  stats:Stats.t ->
  limits:Memory.limits ->
  budget:Obs.Budget.t ->
  ?spawn:((unit -> unit) -> bool) ->
  emit:(Graph.kernel_graph -> unit) ->
  unit ->
  unit
(** [front ()] is the calling worker's solver front; each subtree
    resolves it once, on the domain that runs it, and counts into its
    own {!Tally}. [spawn k] may publish subtree continuation [k] to a work-stealing
    pool and return [true]; returning [false] (the default) makes the
    enumerator recurse inline. Continuations are offered only for
    accepted children at depth <= [steal_depth_cutoff], are safe to run
    on any domain, and never change the emitted candidate set.
    @raise Block_enum.Budget_exhausted on budget exhaustion (reason
    noted on [budget]). The [enum.kernel] fault probe fires here. *)
