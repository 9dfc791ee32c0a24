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
    gate, each with its own table of rules. *)

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

(** {1 Regression gate}

    One table decides which numeric key regresses, in which direction and
    with what slack. The bench history gate ([bench --history F --gate
    PCT], over [BENCH_history.jsonl] entries) and [mirage_cli diff] (over
    run reports) both go through {!gate}; they differ only in their
    tables. *)

type worse =
  | Higher  (** an increase is a regression *)
  | Lower  (** a decrease is a regression *)
  | Recorded  (** kept for the record, never gated *)

type slack =
  | Gate of float  (** a multiple of the caller's threshold *)
  | Fixed of float  (** a fraction whatever the threshold says *)

type rule = {
  section : string;
      (** the dotted key's first component (["costs"], ["serve"], …);
          [""] for a top-level key without a dot *)
  suffix : string;  (** the rest of the key ends with this string *)
  worse : worse;
  rel_slack : slack;
  abs_slack : float;  (** in the key's own unit *)
  same : string option;
      (** [Some f]: the row applies only when top-level field [f] is
          present in the baseline and equal in both documents (wall time
          compares only runs of the same suites) *)
}

val history_rules : rule list
(** The bench history table, one row per key family (see report.ml):
    Fig. 7 costs at the threshold; wall-clock keys at 10x the threshold
    plus an absolute slack; deterministic counts at a fixed 5 % or, for
    [codegen.*c_lines] and [enum.*expanded], on any increase; a few keys
    only recorded. *)

val diff_rules : rule list
(** [mirage_cli diff]'s table: [cost.optimized_us] and [timing.wall_s],
    higher is worse at the threshold. *)

val split : string -> string * string
(** [split "serve.GQA.warm_over_cold" = ("serve", "GQA.warm_over_cold")];
    a key without a dot is [("", key)]. *)

val matching : rule list -> string -> rule list
(** The rows whose section and suffix match a dotted key, in table
    order; {!gate} uses the first. *)

val gate :
  ?rules:rule list -> threshold:float -> Jsonw.t -> Jsonw.t -> delta list
(** The deltas of {!num_deltas} that violate their row of [rules]
    (default {!diff_rules}), in [a]'s field order. [threshold] is a
    fraction ([0.05] = 5 %); [a] is the baseline, [b] the candidate.
    One violation test for every row: with [va > 0], the change in the
    worse direction exceeds both the relative slack x [va] and the
    absolute slack ([Recorded] rows never violate). Keys that match no
    row are not gated. Empty means no regression. *)

val explain : ?rules:rule list -> threshold:float -> delta -> string
(** ["va -> vb (+x%, threshold y% and +abs)"]: one violation, for the
    line after [REGRESSION key:]. *)
