(** A typed, explicit-memory imperative IR — the seam between muGraphs
    and every code backend (the Futhark-style lowering pipeline of
    DESIGN.md: explicit buffers, index-function layouts, loops, stores
    and barriers instead of pseudo-library calls).

    Programs are first-order and fully static: every loop bound, buffer
    shape and stride is a compile-time constant, so a backend renders
    them without any runtime shape machinery. Memory is explicit — a
    value lives in a named {!buf} with a {!Tensor.Layout.t} index
    function, and every read/write goes through a linear index
    expression built by {!index} from that layout's strides. The
    runnable C backend ({!Codegen.C_emit}) renders this IR; there is
    exactly one lowering ({!Lower}). *)

(** Integer index expressions over loop variables. Build them with the
    constant-folding smart constructors below so emitted addressing code
    stays readable. *)
type iexp =
  | Iconst of int
  | Ivar of string
  | Iadd of iexp * iexp
  | Imul of iexp * iexp
  | Idiv of iexp * iexp  (** truncated; operands are non-negative *)
  | Imod of iexp * iexp

val iconst : int -> iexp
val ivar : string -> iexp
val iadd : iexp -> iexp -> iexp
val imul : iexp -> iexp -> iexp
val idiv : iexp -> iexp -> iexp
val imod : iexp -> iexp -> iexp

val eval_iexp : (string -> int) -> iexp -> int
(** Evaluate under an environment for the loop variables. *)

val iexp_vars : iexp -> string list
(** Free variables, sorted, deduplicated. *)

val iexp_to_string : iexp -> string
(** C-syntax rendering (valid in both C99 and CUDA). *)

(** Where a buffer lives. [Global] is device memory (kernel parameters
    and inter-kernel temporaries), [Shared] is block-level scratch (the
    planner assigns it a shared-memory offset), [Local] is the register
    file of a lowered thread graph. *)
type space = Global | Shared | Local

type buf = {
  bname : string;
  space : space;
  shape : int array;
  layout : Tensor.Layout.t;
}

val numel : buf -> int

val strides : buf -> int array
(** The buffer's index function: strides of its layout over its shape. *)

val index : buf -> iexp array -> iexp
(** [index b coords] is the linear address [sum_d coords.(d) * strides
    b.(d)] — every access the lowering emits goes through this, which is
    what makes layout choices honored by construction. *)

(** Scalar (double-precision) value expressions. *)
type vexp =
  | Const of float
  | Load of buf * iexp
  | Temp of string  (** a declared scalar temporary *)
  | Bin of Mugraph.Op.binary * vexp * vexp
  | Un of Mugraph.Op.unary * vexp

(** Loop annotations: [Grid a] iterates grid axis [a] (a CUDA backend
    maps it to [blockIdx], a CPU backend runs it serially), [Forloop l]
    is the block graph's data-streaming for-loop axis [l], [Serial] is
    an elementwise data loop and [Reduce] a reduction loop carrying a
    scalar accumulator. *)
type loop_kind = Grid of int | Forloop of int | Serial | Reduce

type stmt =
  | For of { v : string; n : int; kind : loop_kind; body : stmt list }
  | Decl of { v : string; init : vexp }  (** mutable scalar temporary *)
  | Assign of { v : string; e : vexp }
  | Store of { dst : buf; idx : iexp; e : vexp }
  | Store_add of { dst : buf; idx : iexp; e : vexp }  (** [dst[idx] += e] *)
  | Barrier  (** block-level sync; a no-op for a single-threaded backend *)
  | Comment of string

type kernel = {
  kname : string;
  params : buf list;
      (** formal parameters, all [Global]: inputs then outputs *)
  n_inputs : int;  (** first [n_inputs] params are read-only *)
  shared : (buf * int) list;  (** [Shared] scratch with its smem byte offset *)
  locals : buf list;  (** [Local] thread-graph scratch *)
  grid : int array;  (** [[||]] for a kernel-level library op *)
  forloop : int array;
  smem_bytes : int;
  planner_optimal : bool;  (** the memory plan's exhaustive search finished *)
  body : stmt list;
}

type program = {
  pname : string;
  inputs : buf list;  (** program inputs, in muGraph input order *)
  input_names : string list;  (** the muGraph's declared input names *)
  outputs : buf list;
      (** per muGraph output, the global buffer holding its value (may
          alias an input or repeat) *)
  temps : buf list;  (** inter-kernel global temporaries *)
  kernels : kernel list;
  calls : (string * buf list) list;
      (** the entry sequence: kernel name, actual arguments in formal
          parameter order *)
}

val check_program : program -> (unit, string) result
(** Static well-formedness: distinct kernel names, calls matching formal
    arity/shape/spaces, every load/store in scope, loop variables bound
    and unshadowed, scalar temporaries declared before use, positive
    loop bounds, grid loops agreeing with the kernel's grid. The qcheck
    totality property runs every lowered graph through this. *)

val collapse : program -> program
(** Merge each perfect nest of two [Serial] loops — the outer loop's
    whole body is the inner loop — into one loop over the product of
    their extents, when every index in the inner body reads the two
    variables only as [(outer*n_inner + inner)*k]. The merged loop keeps
    the outer variable's name and visits the same points in the same
    order, so every store and load touches the same addresses in the
    same sequence; applied bottom-up, a contiguous row-major nest
    becomes one loop. Each index is read as written: sums and constant
    multiples are opened and any other node (a quotient, a remainder) is
    an opaque term, so a nest whose index divides its variables stays
    as it is. Only integer index arithmetic and loop structure change;
    no float operation is touched. [Grid], [Forloop] and [Reduce] loops
    are never merged, so grid and data-stream structure and reduction
    order stay as they are. *)
