(** Self-contained run reports: one directory per [optimize]/[bench]
    invocation holding everything needed to understand the run after the
    fact — [report.json] (pretty-printed: config fingerprint, device,
    environment, funnel snapshot, {!Profile} phase table, status),
    [trace.json] (the profiler's timeline as Chrome trace events) and
    [journal.jsonl] (the {!Journal} flight record).

    The report is schema'd JSON assembled from named sections; callers
    (the CLI, the bench harness) add whatever sections their run
    produces. {!num_deltas} and {!gate} compare two reports numerically —
    the engine behind [mirage_cli diff] and the bench-history regression
    gate. *)

type t

val schema : string
(** The value of the report's ["schema"] field
    (["mirage.run_report.v1"]). *)

val create : dir:string -> (t, string) result
(** Create (recursively) the run directory. Sections are buffered in
    memory until {!write}. [Error msg] when [dir] (or one of its
    parents) exists but is not a directory, or cannot be created. *)

val dir : t -> string

val add : t -> string -> Jsonw.t -> unit
(** [add t name section] appends a section; a repeated [name] replaces
    the earlier value in place. *)

val write : t -> unit
(** Write [report.json] (pretty, human-diffable) into the directory:
    the ["schema"] field first, then sections in insertion order. *)

val path : t -> string
(** The path of [report.json] inside the run directory. *)

val env_json : unit -> Jsonw.t
(** The environment fingerprint section: OCaml runtime version, host
    word size / OS type, argv, cwd, and every [MIRAGE_*] environment
    variable. *)

val load : string -> (Jsonw.t, string) result
(** Read a report: accepts the [report.json] file itself or the run
    directory containing it. *)

(** {1 Numeric comparison} *)

type delta = { key : string; va : float; vb : float }
(** One shared numeric leaf of two reports, addressed by its dotted
    path, e.g. ["funnel.expanded"] or ["cost.optimized_us"]. *)

val rel : delta -> float
(** Relative change [(vb - va) / |va|]; [infinity] when [va = 0] and
    [vb <> 0]; [0] when both are zero. *)

val num_deltas : Jsonw.t -> Jsonw.t -> delta list
(** Every numeric leaf present in both documents, in [a]'s field
    order. *)

val gate :
  ?keys:string list -> threshold:float -> Jsonw.t -> Jsonw.t -> delta list
(** Regression gate: the deltas among [keys] (default
    [["cost.optimized_us"; "timing.wall_s"]]; a key matches leaves whose
    dotted path equals it) whose relative {b increase} exceeds
    [threshold] (a fraction: [0.05] = 5%). Empty means no regression —
    [b] is the candidate run, [a] the baseline. *)
