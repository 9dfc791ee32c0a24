(** Compile-and-execute harness for the C backend.

    [compile] renders an {!Impir.Ir.program} with {!C_emit}, compiles it
    into a shared object with the system [cc], and (once per directory)
    builds a tiny generic runner that [dlopen]s any such object. The
    runner speaks a ctypes-free subprocess protocol: raw native-endian
    doubles for every input on stdin, raw doubles for every output on
    stdout, sizes taken from the object's own metadata symbols. Given an
    iteration count it runs the entry that many times in its own process
    and appends the elapsed nanoseconds, so {!time} measures the kernel
    and not the fork and [dlopen] around it.

    Everything lands in the caller-chosen directory so a failing case
    leaves its [.c] file behind for forensics. *)

type compiled = {
  dir : string;
  c_file : string;
  so_file : string;
  runner : string;
  prog : Impir.Ir.program;
  compile_s : float;  (** wall time of render + both cc invocations *)
}

val cc_available : unit -> bool
(** Is a working system [cc] on PATH? Memoized probe. *)

val asan_available : unit -> bool
(** Does [cc -fsanitize=address] link and run here? Memoized probe; the
    differential suite degrades to plain [-O1] with a notice when it
    does not. *)

val default_cflags : unit -> string list
(** [-O1 -fsanitize=address] when available, else [-O1]. *)

val compile :
  ?cflags:string list -> dir:string -> Impir.Ir.program ->
  (compiled, string) result
(** [dir] is created if missing. Errors carry the compiler's stderr. *)

val run :
  compiled -> float array list -> (float array list, string) result
(** Execute on one input set (flat row-major arrays, matching the
    program's input buffers). Errors carry the runner's stderr — an ASAN
    report, a size mismatch, or a crash. *)

val time :
  compiled -> iters:int -> float array list ->
  (float array list * float, string) result
(** [time c ~iters inputs] runs the entry [iters] times on one input set
    inside one runner process and returns the outputs of the last run
    and the mean seconds per run, timed in the runner with the monotonic
    clock (no fork, [dlopen] or pipe I/O inside the interval). Raises
    [Invalid_argument] when [iters < 1]. *)
