(** The prefix engine: the one depth-first generator of Algorithm 1,
    run by both enumeration levels. A level ({!Kernel_enum},
    {!Block_enum}) is a {!level} value: what a tensor is at that level,
    how an operator extends a prefix, its extra admission checks, its
    state and when a prefix is complete. The engine owns the rest: the
    prefix state, the inherited extension table, the visit loop with its
    per-try {!Tally} counts, the journal events, the canonical-rank and
    duplicate checks, the {!Prune} site, the budget check, and
    spawn-or-recurse.

    {b Extension tables.} An operator instantiation (a {e try}) is made
    once, at the prefix where its newest input appeared (its {e birth}),
    and shared by every descendant, on whichever domain runs it. A
    prefix's table is its parent's plus one {e bundle} for each entry
    added since. A bundle holds no record per try: it keeps references
    to the worker's memo cells (one per {e slot}, a cell of the
    generation order that reads the new entry), one birth-verdict byte
    per try and per-slot offsets and live counts; a try's inputs and
    packed rank follow from its slot, its operator and made value from
    the cell. An inherited verdict is exact:
    - a structural verdict depends only on the inputs;
    - the last rank never decreases along a path, so a rank reject at
      birth stays one; otherwise one compare decides;
    - entries only grow, so a duplicate stays one; otherwise only the
      entries added since birth are compared;
    - [admit] only tightens down a path, so a refusal stays one;
      otherwise it is asked again;
    - the prune verdict is a pure function of the abstract expression,
      and a try needs it only when it passed rank, duplicate and [admit],
      hence passed them at birth, where it was asked;
    - [child] and the goal distance are asked at every try.

    {b Bulk counts.} Some rejects are final at birth: a structural one
    at a level that judges it before rank (the block level's Shape and
    Phase), and a rank reject at either level. Such a try is {e dead}:
    its bundle counts it by reason (summed over the table's earlier
    bundles, which every prefix holding the bundle shares), and a prefix
    adds those counts with {!Tally.reject_n} at its own depth, never
    visiting the try. A packed rank's high field is the first input, so
    every try of a row [i] (the tries whose first input is [i]) below
    the last operator's first input [l] ranks below it, as does every
    slot of row [l] whose packed rank does: their live tries are
    [Canonical] rejects, counted from the per-slot live counts without
    being visited. The rest are visited one by one, and only a slot of
    the last operator's own packed rank compares operators.

    {b The extension memo.} Births still repeat one computation: sibling
    subtrees, and the root classes of a search, meet the same operator
    on the same input values again and again. So each search (one
    {!Generator.generate} call) interns every tensor value — its shape,
    normal form and attrs — in a table per level with a small id, and
    each worker keeps, per level, a memo from a {e cell} of the
    generation order to that cell's ops and made values. A birth looks
    its cell up, and only a miss runs the level's [make] (shape
    inference, the abstract expression) and interns the results. Two
    entries recompute one value exactly when their ids are equal. The
    memo is exact because the key covers everything a cell's ops and
    made values are a function of:
    - the cell's kind (unary, column, row, extra) and its inputs' value
      ids, hence their shapes, normal forms and attrs;
    - the level, since each level has its own table and memos;
    - the op menu, fixed for a search;
    - the level's [scope] (the block level's for-loop, by which an
      accumulator scales and sums), one set of cells per scope.
    A prune verdict is a function of the normal form and of the goal,
    and the goal is fixed for a search; so the memo keeps one verdict
    per value, asked through the worker's solver front the first time
    the worker meets the value, and nothing outlives the search that
    made it. Ranks, the duplicate check, [admit] and [child] read the
    prefix and stay per birth or per try.

    {b Goal masks.} Completion asks the goal one more question: which
    spec outputs a value's normal form equals. That too is a function
    of the normal form, so the value table answers it once per value,
    at interning, as a bitmask ([goals]). The value's reach mask (see
    "Goal distance") holds a bit per distinct output form too, and the
    engine calls a run's [complete] only when the prefix's [reach]
    has every output's; [complete] then tests a [goals] bit per
    operator entry and output.

    {b Goal distance.} Abstract pruning keeps every prefix whose values
    are subexpressions of the goal, however few operators are left to
    finish it. So each value table also derives, once per search, a
    lower bound on the operators a prefix still needs
    ({!distance}). It counts two things, each needing its own operator:
    - {e missing atoms}: every [exp]/[sqrt]/[silu] atom nested anywhere
      in a spec output's normal form (in a numerator, a denominator or
      another atom's argument) that occurs in no value of the prefix.
      Only the matching unary operator makes such an atom, one per
      operator;
    - {e missing forms}: every {e needed form} that is no value of the
      prefix yet. The needed forms are each distinct spec output
      (completion matches by normal-form equality) and the argument of
      each goal atom (the unary operator's input must equal it
      exactly). A form that is the bare form of a missing atom (the
      atom alone, as the unary operator's value is) is not counted
      again: the operator that makes the atom makes the form.
    Each value carries a {e reach} mask, computed at interning like its
    goal mask: the bits of the goal atoms nested in its normal form and
    of the needed form it equals. A prefix keeps the OR of its entries'
    masks, so a try's check is a few bit operations and two popcounts.
    A try is cut ([Tally.Unreachable], judged last, after [child]) when
    [ops + distance > max_ops] for the child it would make. A level
    whose inputs already fail it is skipped whole: the generator asks
    {!level_reachable} and does not enumerate its roots. A direct
    {!run} of such a level cuts every try of its root.

    {e Soundness lemma.} Among {!Abstract.prim_nf}'s operators, only
    [Exp], [Sqrt] and [Silu] create an atom, one each ({!atoms_made});
    [Relu], as [silu (silu x)], creates two; no other operator (nor an
    accumulator, a [sum]) creates or removes one, since [A_eq]'s laws
    never look inside an atom. So the atoms of a prefix only grow, and
    a present atom's argument is a value of the prefix (the input of
    the operator that made it): counting every goal atom's argument
    counts exactly the missing atoms' ones. One operator adding value [v] then
    lowers the distance by at most 1: a creating operator removes one
    missing atom, and its value is that atom's bare form, which was not
    counted; any other operator leaves the atoms alone and [v] equals at
    most one needed form. Nor does the distance ever grow, since a
    present atom's bare form is a value. Hence [ops + distance] never
    decreases down a path (a consistent heuristic), a cut is final for
    the whole subtree, and a prefix whose depth plus the root's distance
    is below [max_ops] needs no check. Since a complete prefix has
    distance 0 (its outputs are values,
    hence so are their atoms and, by the lemma, the atoms' arguments),
    no completable prefix is ever cut: the candidate set is exactly the
    one without the cut. A menu holding [Relu] breaks the lemma (its
    inner atom appears with no value for its argument), so there the
    cut is off ({!cuts}). The cut is part of abstract pruning: it is off
    exactly when [use_abstract_pruning] is, so the "w/o abstract expr"
    ablation keeps its meaning. A goal whose atoms and forms need more
    than 62 bits takes no cut (its distance is always 0); its outputs
    keep the bits completion tests.

    {b Visit order} (both levels). A prefix first judges every try of its
    table in generation order — per entry [i]: the unary-like ops on
    [i]; for every [j] the pair ops on [(i, j)] (commutative ones only
    when [i <= j], [Matmul] last in a cell); the level's [extra] ops on
    [i] — counting each try and its one rejection reason (the bulk
    counts first, then the visited tries), and only then searches the
    kept children in the same order. That is the order a fresh
    evaluation of every prefix counts in, so a one-worker node budget
    cuts at the same expansion, and a search cut short has counted
    every rejection of every prefix it started. A prefix's counts do
    not depend on the order within it; only the order of prefixes
    moves a node-budget cut.

    {b Rejection order} (per level). A try is rejected for the first
    check it fails: with [rank_first] (kernel) rank, then [make]'s
    structural check; without (block) the other way round; then, at
    both levels, duplicate, [admit], pruned, [child], and last the goal
    distance (unreachable). A birth verdict
    records which side of the rank check its structural reject falls
    on, so an inherited try lands under the reason a fresh one would.

    {b Ranks as ints.} A rank (paper §4.1) is an operator's input list,
    then its operator; {!Canon.compare_rank} orders both
    structurally. The engine packs the list into one int when a cell is
    made ({!pack_rank}): index [i] becomes the field [i + 1] of six
    bits, the first input in the high field, and a
    one-input list has an empty (zero) low field. The packed order is
    exactly the structural one:
    - the lists compare lexicographically, and the high field decides
      first, as the first index does;
    - on an equal first index, [[a]] is below every [[a; b]] (an empty
      tail is below a non-empty one), and its zero low field is below
      every [b + 1 >= 1];
    - [[a; b]] against [[a; c]] compares [b + 1] with [c + 1];
    - a kernel rank's list holds tensor refs whose port is always 0,
      so it compares by node index, the same as the packed one.
    An index past the field raises instead of wrapping into the next,
    so the order can never silently break; {!run} refuses a level
    whose largest prefix would need one. The operator is compared
    (structurally, as before) only when the packed ints tie, so a
    try's rank check is one int compare and no rank is allocated.

    {b Spawning.} A kept child at depth [<= steal_depth_cutoff] is
    offered to the pool ([spawn]) only when at least two operator levels
    lie below it, and the pool takes it only while some worker is
    hungry (found nothing to pop or steal, {!Deque.Pool.spawn}). So a
    one-worker search never spawns and searches its kept children
    inline in generation order. A child one level from the bottom roots
    a single table of leaves: handing it over would push a closure into
    a major-heap deque, promoting the child's state, and give it a
    prune-check timer of its own, for less work than that costs.

    {b Counts} are per root: every try, rejection and prune-rule fire
    counts the run's [weight] times (see {!Tally.run}), and journal events
    carry ["roots": weight] when [weight > 1]. A prefix counts its
    tries in one batch (the sum of its table's sizes) before judging
    the first. The tries it counts in bulk are journaled as one
    [cand.reject] per reason, with ["tries": n] and no [cand.expand];
    so over a search's [cand.reject] events, the sum of
    [tries * roots] (each 1 when absent) is each reason's count. *)

open Tensor
open Mugraph

exception Budget_exhausted
(** The node budget, the wall deadline or a cancellation cut the
    enumeration (the reason is noted on the budget). *)

type 'a value = private {
  id : int;  (** the value's number in its search's table; -1 before *)
  shape : Shape.t;
  numel : int;  (** elements of [shape] *)
  nf : Absexpr.Nf.t;  (** abstract expression, pre-normalized *)
  attrs : 'a;
      (** what else the level keeps of a tensor, as an immediate value
          (the block level's loop phase): with equal shape and
          expression, two tensors are one value when their attrs are
          [==] *)
  goals : int;
      (** the value's goal mask: bit [j] is set when [nf] is
          [A_eq]-equal to spec output [j]'s normal form; 0 before
          interning *)
  reach : int;
      (** the value's reach mask: the goal atoms nested in [nf] and the
          needed form [nf] equals (see "Goal distance"); 0 before
          interning *)
}
(** A tensor value. The engine interns every value it meets, so within
    one search two values are equal exactly when their ids are. *)

val value : Shape.t -> Absexpr.Nf.t -> 'a -> 'a value
(** A value not interned yet, as a level's [make] returns it. *)

type ('o, 'a) entry = {
  op : 'o;  (** the operator that made it (an input's own node at the root) *)
  ins : int list;  (** the entries it reads; [[]] for an input *)
  value : 'a value;
}
(** One tensor of a prefix. *)

type ('o, 'a) bundle
(** The tries made when one entry appeared. *)

type ('o, 'a, 's) state = private {
  entries : ('o, 'a) entry array;  (** the inputs first *)
  table : ('o, 'a) bundle array;
  ops : int;  (** operators applied so far: the prefix's depth *)
  rank : int;
      (** the packed rank ({!pack_rank}) of the operator that made the
          newest entry, which the next operator's must not be below; 0
          at the root *)
  reach : int;  (** the OR of every entry's reach mask *)
  own : 's;  (** the level's own part of the prefix *)
}

type ('o, 'a, 's) level = {
  name : string;
      (** ["kernel"] or ["block"]: the tally level and the journal's
          ["level"] field *)
  fault : string;  (** the {!Obs.Fault} probe tripped at every prefix *)
  max_ops : int;  (** operators per complete graph *)
  rank_first : bool;  (** the rank check precedes [make]'s *)
  menu : Op.prim list;  (** the primitive operators to instantiate *)
  prim : Op.prim -> 'o;
  op_name : 'o -> string;  (** the journal's ["op"] field *)
  scope : int;
      (** names what [make] and [extra] read beyond their inputs and the
          search's config (the block level's for-loop): searches of one
          level share memo cells only within one scope *)
  extra : 'a value -> 'o list;
      (** ops on one entry tried after its pair cells (the block level's
          accumulators) *)
  make : 'o -> 'a value list -> ('a value, Tally.reason) result;
      (** the value the operator makes of its inputs' values, or the
          structural reason it has none. A function of the operator,
          those values and the level's scope only. *)
  admit : ('o, 'a, 's) state -> 'a value -> Tally.reason option;
      (** a level check that can only tighten down a path (the block
          level's shared memory), judged at birth and at every try *)
  admit_fields :
    ('o, 'a, 's) state -> 'a value -> (string * Obs.Jsonw.t) list;
      (** journal payload of an [admit] reject (built only when a journal
          is live) *)
  child : ('o, 'a, 's) state -> int -> 'a value -> ('s, Tally.reason) result;
      (** [child st reads v]: the own part of the child that adds value
          [v], made by an operator reading the entries whose bits are
          set in [reads], or the reason a last check cuts the try (the
          block level's dangling-value bound). No entry is built for a
          try it cuts. *)
}

type 'a values
(** One search's value table for one level: shared by its workers,
    locked only to intern the results of a memo miss. It computes each
    new value's goal mask once, with {!Absexpr.Nf.equal} against the
    spec's outputs, so a run's [complete] tests a bit where it would
    compare normal forms. *)

val values : Absexpr.Nf.t list -> 'a values
(** [values outputs]: an empty table for a search whose spec outputs
    have the normal forms [outputs], in output order ({!spec_goals}),
    with the goal atoms and needed forms of their goal distance.
    @raise Invalid_argument past 62 outputs, the bits of a
    non-negative int: a mask never wraps. *)

val distance : 'a values -> Absexpr.Nf.t list -> int
(** [distance values nfs]: the goal distance of a prefix whose entries
    (inputs included) have the normal forms [nfs]: its missing goal
    atoms plus its missing needed forms that are no missing atom's bare
    form. *)

val level_reachable :
  Config.t ->
  'a values ->
  Op.prim list ->
  inputs:Absexpr.Nf.t list ->
  max_ops:int ->
  bool
(** [level_reachable cfg values menu ~inputs ~max_ops]: whether a level
    with this menu and operator budget, whose roots hold values of the
    normal forms [inputs], can complete: the level does not take the
    cut ({!cuts}), or its inputs' {!distance} is at most [max_ops]. *)

val atoms : Absexpr.Nf.t -> Absexpr.Nf.t list
(** The bare forms of the distinct [exp]/[sqrt]/[silu] atoms nested
    anywhere in a normal form, in no particular order. *)

val popcount : int -> int
(** The number of set bits of a non-negative int. *)

val atoms_made : Op.prim -> int
(** The most new atoms one application of the operator creates, as the
    soundness lemma states it: 1 for [Exp], [Sqrt] and [Silu], 2 for
    [Relu], 0 for every other operator. *)

val cuts : Config.t -> Op.prim list -> bool
(** Whether a level with this menu takes the goal-distance cut: abstract
    pruning is on and no operator of the menu creates more than one
    atom. *)

val interned : 'a values -> 'a value list
(** Every value the table holds, in no particular order. *)

type ('o, 'a) memo
(** One worker's extension memo for one level, over a shared value
    table: each cell's ops and made values by the cell's key, and each
    value's prune verdict. Used by one worker at a time, unlocked. *)

val memo : 'a values -> Tally.level -> Smtlite.Solver.front -> ('o, 'a) memo
(** [memo values tally front]: a worker's empty memo; prune questions
    go through [front], the same worker's solver front. The memo also
    holds the worker's funnel buffer over [tally]'s handles
    ({!Tally.acc}), which every subtree the worker runs at this level
    counts into. *)

val flush : ('o, 'a) memo -> unit
(** Drain the memo's funnel buffer into the registry ({!Tally.flush}).
    {!run} never does: the memo's owner decides when. *)

val rank_limit : int
(** [63]: a packed rank holds entry indices [0 .. rank_limit - 1] (six
    bits each), so a prefix has at most [rank_limit] entries. *)

val pack_rank : int list -> int
(** [pack_rank ins]: the input list of an operator of arity 1 or 2 as
    one int, ordered as {!Canon.compare_rank} orders the lists.
    @raise Invalid_argument for an index outside [0 .. rank_limit - 1]
    (it never wraps) or another arity. *)

val compare_rank : int -> 'o -> int -> 'o -> int
(** [compare_rank r op r' op']: the order of ranks [(r, op)] and
    [(r', op')], [r] and [r'] packed: the packed ints first, the
    operators (structurally) only on a tie. Its sign is
    {!Canon.compare_rank}'s on the matching [R_kernel] / [R_block]. *)

val prim_value :
  Op.prim -> 'a value list -> 'a -> ('a value, Tally.reason) result
(** [prim_value p vs attrs]: the value applying [p] to [vs] makes, or
    [Error Shape] when their shapes do not fit. *)

val spec_goals : Graph.kernel_graph -> Absexpr.Nf.t list
(** The specification's outputs' normal forms, in output order: what
    {!values} takes. It normalizes every output, so a search computes
    it once. *)


type ('o, 'a, 's) engine
(** A level's closures over one search's memos and budget, made once and
    shared by every {!run} of the level on any domain: the visit loop,
    the journal sites (the journal is resolved when the engine is made),
    the prune site and the budget check. *)

val engine :
  ('o, 'a, 's) level ->
  Config.t ->
  memo:(unit -> ('o, 'a) memo) ->
  budget:Obs.Budget.t ->
  ('o, 'a, 's) engine
(** [engine lv cfg ~memo ~budget]: the engine of level [lv]. [memo ()]
    is the calling worker's memo; it is asked only when a run or a
    subtree starts, so the engine can be made on a domain that is no
    worker. *)

val intern : 'a values -> 'a value -> 'a value
(** The table's canonical record of the value (its id, goal and reach
    masks), added on first sight; takes the table's lock. *)

val run :
  ('o, 'a, 's) engine ->
  ?spawn:((unit -> unit) -> bool) ->
  weight:int ->
  complete:(Tally.t -> ('o, 'a, 's) state -> unit) ->
  ('o, 'a) entry array ->
  's ->
  unit
(** [run e ~weight ~complete inputs own] grows every prefix of at most
    [max_ops] operators from the inputs, calling [complete] on each
    prefix whose [reach] has every output's form: it emits the
    candidates the prefix completes and counts them. Every try counts
    [weight] times, the roots it stands for (1, or the block level's
    root-class size). Inputs whose value is not interned yet (id -1)
    are interned first, under the table's lock; the array becomes the
    root's entries and must not change. Each subtree resolves [memo ()]
    once, on the domain that runs it, and counts into that worker's
    buffer, unflushed when the run returns. [spawn k] may publish
    subtree continuation [k] to a work-stealing pool and return [true]
    (the generator's does while a worker is hungry); returning [false]
    (the default) makes the engine recurse inline. Continuations are
    offered only for kept children at depth <= [steal_depth_cutoff]
    with at least two operator levels below them ([max_ops - depth >=
    2]), are safe to run on any domain, and never change the emitted
    candidate set. A root whose goal distance exceeds [max_ops] (when
    the level {!cuts}) has every try cut as unreachable; the generator
    never searches one ({!level_reachable}).
    @raise Budget_exhausted on budget exhaustion.
    @raise Invalid_argument when the inputs plus [max_ops] exceed
    {!rank_limit} entries, before any prefix is searched. *)
