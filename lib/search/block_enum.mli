(** The block-graph enumerator: the inner loop of Algorithm 1.

    A {e root} fixes the custom kernel's grid dimensions, for-loop trip
    counts, and the imap/fmap of every input iterator. From a root, the
    block level grows block-graph prefixes (§4.1) as a {!Prefix.level}
    that supplies:
    - its entries: block operators, each tensor with its loop phase and
      tile bytes, and the prefix's shared memory and consumed-entry mask
      as level state;
    - its extensions: the block op menu's prims, made by loop phase,
      shape inference and the abstract expression; after the pair cells,
      a loop-body value's accumulator (a plain sum over the for-loop);
    - phase and shape before rank;
    - two admission checks: shared memory, which only grows down a path,
      and the dangling-value bound;
    - completion: every spec output [A_eq]-matched (a goal-mask bit) by
      a post-loop tensor whose omap reconstructs its kernel-level shape,
      and every input iterator consumed;
    - the [enum.block] fault probe.

    {b Root classes.} The search reads a root's imap/fmap in two places
    only: the initial state, which needs each input's tile shape, loop
    phase and tile bytes, and the graph it builds for an emitted
    candidate. Ranks, the duplicate check, shared memory, the prune
    query, the dangling-value bound and the omaps depend only on those
    tiles and phases, the grid and the for-loop. So roots that agree on
    grid, for-loop and every input's (tile, phase) — one {e root class}
    — have identical searches. {!enumerate_roots} groups them, and
    {!search_root} runs one DFS per class, with the class size as the
    level's [weight]: at each completing prefix it builds the output
    selections once, then builds, checks and emits a graph for every
    member with that member's input iterators, in the members'
    enumeration order, counting one candidate per member that emitted a
    graph. The emitted set and every count are the per-root search's.
    The class key and the initial state come from the same function, so
    they cannot drift apart. {!prepare} makes, once per search and
    (grid, for-loop) pair, the level's {!Prefix.engine} and each input
    view's interned value, so a class's search starts from its views'
    values with no set-up of its own. Solver queries count real
    queries, once per distinct value per worker (see {!Prefix}).

    {b Memo scope.} [make] and the accumulators read the root's for-loop
    and nothing else of it, so a search's memo scope is its for-loop's
    index among the config's candidates. *)

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
  views : int array;
      (** per input, the number of the class's (tile, phase) among that
          input's distinct views for the class's grid and for-loop, first
          seen first numbered *)
}

val enumerate_roots :
  Config.t -> input_shapes:Shape.t list -> root_class list
(** All valid (grid, forloop, imap/fmap) combinations from the config's
    candidate lists — every grid and for-loop dimension must partition at
    least one input — grouped into root classes, in order of each
    class's first member. Flattening the classes' members gives every
    valid root exactly once.

    Per (grid, for-loop) pair, in the config's order, each input's valid
    (imap, fmap) options are listed once (imap-major) with their view
    numbers and the grid and loop dims they partition as bitmasks; the
    product of the inputs' options is walked with an index array, the
    first input slowest, a root is kept when the OR of its options'
    masks covers every dim, and its class within the pair is the
    mixed-radix number of its view ids. Two pairs never share a class
    (a repeated pair fills the classes of its first occurrence). *)

type emit = Graph.kernel_graph -> unit

type phase = Body | Inv | Post
(** A block tensor's loop phase, its value's attrs: computed in the loop
    body, loop-invariant, or after the loop (an accumulator's output). *)

val tally : Stats.t -> Tally.level
(** The block level's counters ([search.block.*]), resolved once per
    search for the workers' memos ({!Prefix.memo}). *)

type search
(** What every root class of one search shares, made once per search:
    per (grid, for-loop) pair of the config, the level's {!Prefix.engine}
    and every input view's interned value. Which entry's value equals
    which output is its goal mask ({!Prefix.value}). *)

val prepare :
  Config.t ->
  spec:Graph.kernel_graph ->
  limits:Memory.limits ->
  values:phase Prefix.values ->
  memo:(unit -> (Graph.block_op, phase) Prefix.memo) ->
  budget:Obs.Budget.t ->
  search
(** [prepare cfg ~spec ~limits ~values ~memo ~budget]: the block level
    of one search. [values] is the table every worker's memo ([memo ()],
    see {!Prefix.run}) interns into, masked against the spec's outputs
    ({!Prefix.spec_goals}). *)

val search_root :
  search -> ?spawn:((unit -> unit) -> bool) -> emit:emit -> root_class -> unit
(** Depth-first expansion of one root class of the prepared search's
    config through {!Prefix.run} (see there for [spawn]), emitting the
    graphs of every member. [emit] receives complete, validated
    candidates (not yet verified).
    @raise Prefix.Budget_exhausted on budget exhaustion. *)
