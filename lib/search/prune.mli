(** The shared abstract-expression prune check (paper §5): one site for
    the subexpression test, its funnel counter, its per-depth histogram
    and its journal reject record, used by both the kernel-level and the
    block-level enumerator so the two levels can never account for the
    same rejection differently.

    The site has two halves. {!query} asks the solver where an extension
    is evaluated; {!reject} counts and journals the rejection where a try
    is visited. An enumerator calls {!reject} for a try exactly when
    {!query} said [true] for it. *)

val check : Config.t -> front:Smtlite.Solver.front -> Absexpr.Nf.t -> bool
(** [check cfg ~front nf] is [true] when abstract pruning is enabled and
    [nf] fails the subexpression check against the goal outputs, asked
    through a worker's solver front. *)

val journal_fields : Absexpr.Nf.t -> (string * Obs.Jsonw.t) list
(** The journal payload of a [pruned_abstract] reject (the failing
    expression and the name of the failed check). *)

val query : Config.t -> Tally.t -> Absexpr.Nf.t -> bool
(** {!check} through the tally's solver front, its wall time accumulated
    in the tally's timer: [true] when the extension must be pruned. *)

val reject :
  Tally.t ->
  depth:int ->
  remaining:int ->
  jreject:(string -> (string * Obs.Jsonw.t) list -> unit) ->
  journal_live:bool ->
  Absexpr.Nf.t ->
  unit
(** Count a [Pruned] rejection at [depth] (with [remaining] operator
    slots below it) in the tally and emit the reject via [jreject], with
    the full payload only when [journal_live] (so no Jsonw value is built
    when no journal is installed). *)
