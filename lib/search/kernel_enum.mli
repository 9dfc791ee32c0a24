(** Kernel-level enumeration: sequences of pre-defined kernel operators
    whose outputs match the specification — the TASO/PET-style algebraic
    slice of Mirage's search space (no custom kernels).

    A {!Prefix.level} over the spec's inputs. It supplies:
    - its entries: kernel operators ([K_input], [K_prim]) with no extra
      attributes and no level state;
    - its extensions: the kernel op menu's prims, each made by shape
      inference and its abstract expression from its inputs' values;
    - rank before shape: a try out of canonical order is a [canonical]
      reject even when its shapes do not fit;
    - no extra admission checks;
    - completion: every spec output matched by an operator entry of the
      same shape and an [A_eq]-equal expression (its value's goal mask,
      {!Prefix.value}), in a valid graph that fits device memory;
    - the [enum.kernel] fault probe. *)

open Mugraph

val tally : Stats.t -> Tally.level
(** The kernel level's counters ([search.kernel.*]), resolved once per
    search for the workers' memos ({!Prefix.memo}). *)

val search :
  Config.t ->
  spec:Graph.kernel_graph ->
  memo:(unit -> (Graph.kernel_op, unit) Prefix.memo) ->
  limits:Memory.limits ->
  budget:Obs.Budget.t ->
  ?spawn:((unit -> unit) -> bool) ->
  emit:(Graph.kernel_graph -> unit) ->
  unit ->
  unit
(** Every kernel graph of at most [max_kernel_ops] operators, through
    {!Prefix.run} (see there for [memo] and [spawn]). [memo]'s value
    table masks against [spec]'s outputs ({!Prefix.spec_goals}).
    @raise Prefix.Budget_exhausted on budget exhaustion. *)
