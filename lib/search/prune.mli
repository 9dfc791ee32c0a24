(** The abstract-expression prune check (paper §5). {!Prefix} asks it
    once per distinct value a worker meets in a search, keeps the
    verdict in the worker's extension memo, and counts and journals a
    [pruned_abstract] reject at every try of an extension whose value
    failed it. *)

val check : Config.t -> front:Smtlite.Solver.front -> Absexpr.Nf.t -> bool
(** [check cfg ~front nf] is [true] when abstract pruning is enabled and
    [nf] fails the subexpression check against the goal outputs, asked
    through a worker's solver front. *)

val journal_fields : Absexpr.Nf.t -> (string * Obs.Jsonw.t) list
(** The journal payload of a [pruned_abstract] reject (the failing
    expression and the name of the failed check). *)
