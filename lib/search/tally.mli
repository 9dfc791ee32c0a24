(** Worker-owned accounting for the enumeration: the per-level
    [search.<level>.*] counters, the candidate count and the solver
    front's query counts, batched in plain fields of one buffer ({!acc})
    per worker and level, and a prune-check timer per subtree. It is the
    one record of what a search cut: {!Stats} derives the funnel from
    these level counters, and the profiler times phases, it does not
    count cuts.

    A worker's buffer lives in its memo of the level ({!Prefix.memo}),
    and only that worker writes it. Each subtree (a root task or a
    spawned continuation, on whichever worker executes it) counts into
    its worker's buffer through a tally ({!run}) that carries the
    subtree's weight, so subtrees of different root classes share the
    buffer and a subtree costs no flush of its own. {!expand} drains a
    full batch ({!batch} expansions); every other drain is the memo
    owner's ({!Generator.generate}: when a root task ends and once the
    lanes have joined). So totals are exact when the search
    returns, and live readers lag by at most one batch per worker.

    Counts are per root. The block level searches a root class once (see
    {!Block_enum}), so a class's subtrees run with the class size as
    their weight: a try and a rejection count once per member of the
    class. Candidates are counted once per member that emitted a graph.
    Solver-front queries and hits are not weighted: they count real
    queries. *)

type reason =
  | Shape
  | Memory
  | Duplicate
  | Canonical
  | Pruned
  | Phase
  | Dangling
  | Unreachable
(** Why an attempted extension was cut. [Phase] and [Dangling] are
    block-level structural cuts, and [Unreachable] is the goal-distance
    cut of both levels (too few operators left to build what the goal
    still misses, see {!Prefix}). The rest are funnel rejections:
    {!Stats.snapshot} sums their two levels' counters. *)

val n_reasons : int
(** [8]: the reasons' indices are [0 .. n_reasons - 1]. *)

val index : reason -> int
(** A reason's index, in declaration order ([Shape] is 0). *)

val of_index : int -> reason
(** The reason with that index.
    @raise Invalid_argument outside [0 .. n_reasons - 1]. *)

val batch : int
(** [4096]: how many expansions a worker's buffer may hold before
    {!expand} drains it into the shared counters. *)

type level
(** One enumerator level's shared handles, resolved once per search. *)

val level : Stats.t -> name:string -> reason list -> level
(** Finds the counter [search.<name>.expanded] ({!Stats.create}
    registered it for ["kernel"] and ["block"]) and registers, in order,
    a [search.<name>.reject.<r>] counter per reason. Only the listed
    reasons may be passed to {!reject}. *)

type acc
(** One worker's buffer for one level of one search. *)

val acc : level -> Smtlite.Solver.front -> acc
(** [acc lvl front]: an empty buffer over [lvl]'s handles and the
    worker's solver front. *)

val flush : acc -> unit
(** Drain the buffer into the registry and the solver's counters: each
    batch is added once, to its level counter. *)

type t

val run : acc -> weight:int -> (t -> 'a) -> 'a
(** [run a ~weight f] runs one subtree [f], counting into [a] with
    [weight], the number of roots each try stands for: every expansion
    and rejection counts [weight] times. It flushes the subtree's
    prune-check timer when [f] returns or raises. *)

val expand : t -> int -> unit
(** [expand t n]: count [n] attempted extensions of a prefix, each
    [weight] times, flushing the buffer when a batch is full. The engine
    counts a prefix's whole table in one call, before judging its
    tries. *)

val reject : t -> reason -> unit
(** Count a cut, [weight] times. *)

val reject_n : t -> reason -> int -> unit
(** [reject_n t r n]: {!reject} [n] times, in one add (the
    engine counts the tries it never visits this way). *)

val candidate : t -> unit
(** Count one completing prefix submitted to verification (unweighted:
    the block level calls it once per member that emitted a graph). *)

val expanded : t -> int
(** Flushed expansions of the whole search plus this worker's unflushed
    batch, both weighted: the count the node budget is checked against, so the
    budget still bounds per-root work. *)

val front : t -> Smtlite.Solver.front
val timer : t -> Obs.Profile.timer
(** The batched ["prune.abstract"] timer. *)
