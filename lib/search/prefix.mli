(** The prefix engine: the one depth-first generator of Algorithm 1,
    run by both enumeration levels. A level ({!Kernel_enum},
    {!Block_enum}) is a {!level} value: what a tensor is at that level,
    how an operator extends a prefix, its extra admission checks, its
    state and when a prefix is complete. The engine owns the rest: the
    prefix state, the inherited extension table, the visit loop with its
    per-try {!Tally} counts, the journal events, the canonical-rank and
    duplicate checks, the {!Prune} site, the budget check, and
    spawn-or-recurse.

    {b Extension tables.} Each operator instantiation (an {e extension})
    is an immutable record, made once at the prefix where its newest
    input appeared (its {e birth}) and shared by every descendant, on
    whichever domain runs it. A prefix's table is its parent's plus one
    bundle for each entry added since. So the level's [make] (shape
    inference, the abstract expression) and the prune query run once
    per extension, not once per try. An extension keeps its rank and its
    birth verdict, and an inherited verdict is exact:
    - a structural verdict depends only on the inputs;
    - the last rank never decreases along a path, so a rank reject at
      birth stays one; otherwise one compare decides;
    - entries only grow, so a duplicate stays one; otherwise only the
      entries added since birth are compared;
    - [admit] only tightens down a path, so a refusal stays one;
      otherwise it is asked again;
    - the prune verdict is a pure function of the abstract expression,
      and a try needs it only when it passed rank, duplicate and [admit],
      hence passed them at birth, where the query ran;
    - [child] is asked at every try.

    {b Visit order} (both levels). A prefix first judges every try of its
    table in generation order — per entry [i]: the unary-like ops on
    [i]; for every [j] the pair ops on [(i, j)] (commutative ones only
    when [i <= j], [Matmul] last in a cell); the level's [extra] ops on
    [i] — counting each try and its one rejection reason, and only then
    searches the kept children in the same order. That is the order a
    fresh evaluation of every prefix counts in, so a one-worker node
    budget cuts at the same expansion, and a search cut short has
    counted every rejection of every prefix it started.

    {b Rejection order} (per level). A try is rejected for the first
    check it fails: with [rank_first] (kernel) rank, then [make]'s
    structural check; without (block) the other way round; then, at
    both levels, duplicate, [admit], pruned, [child]. A birth verdict
    records which side of the rank check its structural reject falls
    on, so an inherited try lands under the reason a fresh one would.

    {b Counts} are per root: every try, rejection and prune-rule fire
    counts [weight] times (see {!Tally.level}), and journal events carry
    ["roots": weight] when [weight > 1]. *)

open Tensor
open Mugraph

exception Budget_exhausted
(** The node budget, the wall deadline or a cancellation cut the
    enumeration (the reason is noted on the budget). *)

type ('o, 'a) entry = {
  op : 'o;  (** the operator that made it (an input's own node at the root) *)
  ins : int list;  (** the entries it reads; [[]] for an input *)
  shape : Shape.t;
  numel : int;  (** elements of [shape] *)
  nf : Absexpr.Nf.t;  (** abstract expression, pre-normalized *)
  attrs : 'a;
      (** what else the level keeps of a tensor, as an immediate value
          (the block level's loop phase): with equal shape and
          expression, two tensors are one value when their attrs are
          [==] *)
}
(** One tensor of a prefix. *)

type ('o, 'a) bundle
(** The extensions made when one entry appeared. *)

type ('o, 'a, 's) state = private {
  entries : ('o, 'a) entry array;  (** the inputs first *)
  table : ('o, 'a) bundle array;
  ops : int;  (** operators applied so far: the prefix's depth *)
  last_rank : Canon.rank option;
  own : 's;  (** the level's own part of the prefix *)
}

type ('o, 'a, 's) level = {
  name : string;
      (** ["kernel"] or ["block"]: the tally level and the journal's
          ["level"] field *)
  fault : string;  (** the {!Obs.Fault} probe tripped at every prefix *)
  max_ops : int;  (** operators per complete graph *)
  weight : int;  (** roots each try stands for *)
  reasons : Tally.reason list;
      (** every reason this level rejects under, in registration order *)
  rank_first : bool;  (** the rank check precedes [make]'s *)
  menu : Op.prim list;  (** the primitive operators to instantiate *)
  prim : Op.prim -> 'o;
  rank : 'o -> int list -> Canon.rank;
  op_name : 'o -> string;  (** the journal's ["op"] field *)
  extra : ('o, 'a) entry -> 'o list;
      (** ops on one entry tried after its pair cells (the block level's
          accumulators) *)
  make :
    ('o, 'a, 's) state ->
    'o ->
    int list ->
    (('o, 'a) entry, Tally.reason) result;
      (** the extension's tensor at its birth prefix, or the structural
          reason it has none. Depends only on the inputs' entries. *)
  admit : ('o, 'a, 's) state -> ('o, 'a) entry -> Tally.reason option;
      (** a level check that can only tighten down a path (the block
          level's shared memory), judged at birth and at every try *)
  admit_fields :
    ('o, 'a, 's) state -> ('o, 'a) entry -> (string * Obs.Jsonw.t) list;
      (** journal payload of an [admit] reject (built only when a journal
          is live) *)
  child : ('o, 'a, 's) state -> ('o, 'a) entry -> ('s, Tally.reason) result;
      (** the kept child's own part, or the reason a last check cuts the
          try (the block level's dangling-value bound) *)
  complete : Tally.t -> ('o, 'a, 's) state -> unit;
      (** emit the candidates the prefix completes, counting them *)
}

val prim_entry :
  ('o, 'a) entry array ->
  'o ->
  Op.prim ->
  int list ->
  'a ->
  (('o, 'a) entry, Tally.reason) result
(** [prim_entry entries op p ins attrs]: the tensor [op] makes by
    applying [p] to [entries] [ins], or [Error Shape] when their shapes
    do not fit. *)

val spec_outputs : Graph.kernel_graph -> (Absexpr.Nf.t * Shape.t) list
(** The specification's outputs: normal form and kernel-level shape. *)

val search :
  ('o, 'a, 's) level ->
  Config.t ->
  stats:Stats.t ->
  front:(unit -> Smtlite.Solver.front) ->
  budget:Obs.Budget.t ->
  ?spawn:((unit -> unit) -> bool) ->
  ('o, 'a) entry list ->
  's ->
  unit
(** [search lv cfg ... inputs own] grows every prefix of at most
    [lv.max_ops] operators from the inputs, calling [lv.complete] on
    each. [front ()] is the calling worker's solver front; each subtree
    resolves it once, on the domain that runs it, and counts into its
    own {!Tally}. [spawn k] may publish subtree continuation [k] to a
    work-stealing pool and return [true]; returning [false] (the
    default) makes the engine recurse inline. Continuations are offered
    only for kept children at depth <= [steal_depth_cutoff], are safe
    to run on any domain, and never change the emitted candidate set.
    @raise Budget_exhausted on budget exhaustion. *)
