(** Domain-owned accounting for one enumeration subtree: the funnel
    counts of {!Stats}, the per-depth [search.<level>.*] histograms, the
    solver front's query counts, and the profiler's prune-check timer and
    rule handles, all batched in plain fields the subtree owns.

    A tally is created when a subtree starts running (its root task or a
    spawned continuation, on whichever worker executes it) and used only
    there. {!flush} drains it into the shared registry. {!run} flushes
    when the subtree ends, also when it raises (crash, budget cut), and
    {!expand} flushes every {!Obs.Profile.batch} expansions in between.
    So totals are exact once every subtree has ended, and live readers
    lag by at most one batch per worker.

    Counts are per root. The block level searches a root class once (see
    {!Block_enum}), so its level carries the class size as a weight: a
    try, a rejection, its depth-histogram bucket and its prune-rule fire
    count once per member of the class. Candidates are counted once per
    member that emitted a graph. Solver-front queries and hits are not
    weighted: they count real queries. *)

type reason = Shape | Memory | Duplicate | Canonical | Pruned | Phase | Dangling
(** Why an attempted extension was cut. [Phase] and [Dangling] are
    block-level structural cuts with their own registry counters; the
    rest are funnel rejections with a depth histogram. *)

val reason_name : reason -> string
(** The name a reason goes by in the journal's [cand.reject] events and
    the profiler's prune rules (["shape"], ["pruned_abstract"], ...). *)

type level
(** One enumerator level's shared handles, resolved once per search
    (kernel) or per root class (block). *)

val level :
  Stats.t ->
  name:string ->
  max_depth:int ->
  ?weight:int ->
  reason list ->
  level
(** Registers, in order, [search.<name>.expand_depth], then per reason a
    [search.<name>.reject_depth.<r>] histogram ([Phase]/[Dangling]: a
    [search.<name>.reject.<r>] counter). Histograms bucket depths
    [0 .. max_depth]. Only the listed reasons may be passed to
    {!reject}. [weight] (default 1) is the number of roots each try
    stands for: every expansion, rejection, histogram bucket and
    prune-rule fire is flushed multiplied by it. *)

type t

val run : level -> Smtlite.Solver.front -> (t -> 'a) -> 'a
(** [run lvl front f] runs [f] with a fresh tally and flushes it when
    [f] returns or raises. [front] is the executing worker's solver
    front. *)

val expand : t -> depth:int -> unit
(** Count one attempted extension of a prefix at [depth], [weight] times
    toward the batch. *)

val reject : t -> reason -> depth:int -> unit
(** Count a cut at [depth]. Its profiler prune rule records it at the
    next flush, with the [max_depth - depth - 1] operator slots below it
    for the savings estimate. *)

val candidate : t -> unit
(** Count one completing prefix submitted to verification (unweighted:
    the block level calls it once per member that emitted a graph). *)

val expanded : t -> int
(** Flushed expansions of the whole search plus this tally's own batch,
    both weighted: the count the node budget is checked against, so the
    budget still bounds per-root work. *)

val front : t -> Smtlite.Solver.front
val timer : t -> Obs.Profile.timer
(** The batched ["prune.abstract"] timer. *)
