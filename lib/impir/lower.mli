(** The one lowering pass [Mugraph -> impir].

    Every backend consumes its output, so block-level semantics (initer
    slicing, accumulator placement, epilogue discipline, omap
    concatenation) are encoded here exactly once, mirroring
    {!Mugraph.Interp.eval_block}:

    - grid axes become [Grid] loops (a CUDA backend maps them to
      [blockIdx]; the C backend runs them serially);
    - initers copy the imap/fmap-sliced tile of a kernel input into a
      shared buffer whose layout comes from {!Opt.Layout_opt};
    - the for-loop body follows {!Opt.Schedule.block_schedule} order with
      a [Barrier] between depth levels;
    - accumulators add into a zero-initialized buffer, offset along each
      fmap data dim by the loop coordinate (concatenation in mesh order;
      [Replica] sums in place);
    - post-loop nodes run once in the epilogue, and outsavers write each
      block's tile at its omap offset;
    - thread graphs compute through [Local] (register) buffers.

    Shared-memory offsets come from {!Opt.Memplan.plan_block} and every
    address is built by {!Ir.index} from the buffer's layout strides,
    except that a [Reshape] between two row-major buffers is one flat
    loop that reads the index it writes. Perfect serial nests then go
    through {!Ir.collapse}, which touches no float operation or its
    order. *)

val nests :
  ?layouts:(int * Opt.Layout_opt.assignment) list ->
  name:string ->
  Mugraph.Graph.kernel_graph ->
  Ir.program
(** The lowering up to its last pass: every loop nest as built. [lower]
    is {!Ir.collapse} of this; the collapse test compares the two. *)

val lower :
  ?layouts:(int * Opt.Layout_opt.assignment) list ->
  name:string ->
  Mugraph.Graph.kernel_graph ->
  Ir.program
(** Lower a validated muGraph. [layouts] defaults to
    [Opt.Layout_opt.optimize]; pass it explicitly to pin a layout choice
    (the round-trip test does). Raises [Graph.Ill_formed] or
    [Invalid_argument] only on graphs that fail shape inference — on any
    well-typed graph, lowering is total (the qcheck property). *)
