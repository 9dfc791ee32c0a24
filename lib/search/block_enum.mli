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
    - the dangling-value bound is recomputed from the child's state. *)

open Tensor
open Mugraph

type root = {
  grid : int array;
  forloop : int array;
  initers : (Dmap.imap * Dmap.fmap) array;  (** one per spec input *)
}

val enumerate_roots :
  Config.t -> input_shapes:Shape.t list -> root list
(** All valid (grid, forloop, imap/fmap) combinations from the config's
    candidate lists; every grid and for-loop dimension must partition at
    least one input. *)

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
  root ->
  unit
(** Depth-first expansion of one root. [emit] receives complete,
    validated candidates (not yet verified). [front ()] is the calling
    worker's solver front; each subtree resolves it once, on the domain
    that runs it, and counts into its own {!Tally}. [spawn k] may publish
    subtree continuation [k] to a work-stealing pool and return [true];
    returning [false] (the default) makes the enumerator recurse
    inline — offered only for accepted children at depth <=
    [steal_depth_cutoff], safe on any domain, never changes the emitted
    candidate set. @raise Budget_exhausted when the node budget, the
    wall deadline or a cancellation cuts the enumeration (the reason is
    noted on [budget]). The [enum.block] fault probe fires here. *)
