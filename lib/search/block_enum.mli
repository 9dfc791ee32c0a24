(** The block-graph enumerator: the inner loop of Algorithm 1.

    A {e root} fixes the custom kernel's grid dimensions, for-loop trip
    counts, and the imap/fmap of every input iterator. From a root, the
    enumerator grows block-graph prefixes one operator at a time — in
    nondecreasing canonical rank order (§4.1) — checking tensor shapes,
    shared-memory usage, and the abstract-expression subexpression filter
    (§4.3) before each extension. Whenever some tensors' abstract
    expressions are [A_eq]-equivalent to the specification's outputs and
    an omap reconstructs the right kernel-level shapes, a complete
    candidate muGraph is emitted.

    {b Extension tables.} A child prefix differs from its parent by one
    tensor, so most of its operator instantiations read only tensors the
    parent already had. Each instantiation is an immutable record, made
    once at the prefix where its newest input appeared and shared by
    every descendant, on whichever domain runs it. A prefix's table is
    its parent's plus fresh records for the instantiations that read the
    entry just added. A record holds its phase or shape verdict and its
    canonical rank; past those two checks, also its shape, abstract
    expression and bytes, and the verdict it got where it was made:
    duplicate, memory, pruned or alive.

    A prefix first visits its whole table in generation order (per input
    [i]: unary-like ops, then binary ops on [(i, j)] for every [j], then
    accumulators), counting each try and its rejection reason exactly as
    a fresh evaluation of every prefix would, and only then searches the
    kept children in the same order. An inherited verdict is exact:
    - phase and shape depend only on the inputs, so they are fixed;
    - the last rank never decreases along a path, so a rank reject where
      the record was made stays one; otherwise one compare against the
      current last rank decides;
    - entries only grow, so a duplicate stays a duplicate; otherwise only
      the entries added since the record was made are compared;
    - shared memory only grows, so the memory check is one add and one
      compare;
    - the prune verdict is a pure function of the abstract expression. A
      descendant needs it only when the try passes rank, duplicate and
      memory, which implies it passed them where it was made, where the
      prune query already ran. So an inherited try is never re-queried;
    - the dangling-value bound is recomputed from the child's state.

    {b Root classes.} The search reads a root's imap/fmap in two places
    only: the initial state, which needs each input's tile shape, loop
    phase and tile bytes, and the graph it builds for an emitted
    candidate. Ranks, the duplicate check, shared memory, the prune
    query, the dangling-value bound and the omaps depend only on those
    tiles and phases, the grid and the for-loop. So roots that agree on
    grid, for-loop and every input's (tile, phase) — one {e root class}
    — have identical searches. {!enumerate_roots} groups them, and
    {!search_root} runs one DFS per class: at each completing prefix it
    builds the output selections once, then builds, checks and emits a
    graph for every member with that member's input iterators, in the
    members' enumeration order. The emitted set is the per-root search's,
    graph for graph. The class key and the initial state come from the
    same function, so they cannot drift apart.

    Counts stay per root: every try, rejection, depth-histogram bucket
    and prune-rule fire of a class counts once per member (see
    {!Tally.level}), a candidate once per member that emitted a graph,
    and the journal's block-level [cand.expand], [cand.reject] and
    [cand.accept] events carry ["roots": k] for a class of k > 1
    members. Solver queries count real queries, once per class. *)

open Tensor
open Mugraph

type root = {
  grid : int array;
  forloop : int array;
  initers : (Dmap.imap * Dmap.fmap) array;  (** one per spec input *)
}

type root_class = {
  rep : root;  (** the class's first root: its representative *)
  members : (Dmap.imap * Dmap.fmap) array array;
      (** every member's input iterators in enumeration order,
          [rep.initers] first *)
}

val enumerate_roots :
  Config.t -> input_shapes:Shape.t list -> root_class list
(** All valid (grid, forloop, imap/fmap) combinations from the config's
    candidate lists — every grid and for-loop dimension must partition at
    least one input — grouped into root classes, in order of each
    class's first member. Flattening the classes' members gives every
    valid root exactly once. *)

type emit = Graph.kernel_graph -> unit

exception Budget_exhausted

val search_root :
  Config.t ->
  spec:Graph.kernel_graph ->
  front:(unit -> Smtlite.Solver.front) ->
  stats:Stats.t ->
  limits:Memory.limits ->
  budget:Obs.Budget.t ->
  ?spawn:((unit -> unit) -> bool) ->
  emit:emit ->
  root_class ->
  unit
(** Depth-first expansion of one root class, emitting the graphs of
    every member. [emit] receives complete, validated candidates (not
    yet verified). [front ()] is the calling worker's solver front;
    each subtree resolves it once, on the domain that runs it, and
    counts into its own {!Tally}. [spawn k] may publish
    subtree continuation [k] to a work-stealing pool and return [true];
    returning [false] (the default) makes the enumerator recurse
    inline — offered only for accepted children at depth <=
    [steal_depth_cutoff], safe on any domain, never changes the emitted
    candidate set. @raise Budget_exhausted when the node budget, the
    wall deadline or a cancellation cuts the enumeration (the reason is
    noted on [budget]). The [enum.block] fault probe fires here. *)
