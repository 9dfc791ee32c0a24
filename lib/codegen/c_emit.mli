(** Portable C99 renderer for {!Impir.Ir} programs — the runnable
    backend. The emitted translation unit is self-contained: it includes
    no header, calls [__builtin_exp], [__builtin_sqrt] and
    [__builtin_memcpy] (gcc and clang lower them to the libm and libc
    routines the headers would declare, so it still links [-lm]), defines
    only the [mir_*] helpers the program applies, computes in double
    precision, and exports:

    - [void mirage_entry(const double **in, double **out)] — runs the
      whole program on flat row-major buffers;
    - [int mirage_num_inputs(void)] / [long mirage_input_size(int)] and
      the output counterparts — the shape metadata a generic harness
      needs to drive it without any program-specific knowledge.

    Grid loops run serially, [Barrier] is a no-op (single thread), and
    shared/local scratch become function-scoped [static] arrays. *)

val emit : Impir.Ir.program -> string

val loc : string -> int
(** Lines of emitted code (for reporting). *)
