(** Checkpoint/resume for the search runtime.

    A checkpoint file ([checkpoint.json] in the run directory) records,
    per partition piece, which enumeration tasks have completed and every
    candidate muGraph emitted so far. Tasks are deterministic given the
    spec and config — the kernel-level pass plus one task per block-level
    root class ({!Block_enum.root_class}) — so an index-based cursor is a
    sound resume point: completed tasks are skipped, interrupted ones
    re-run and deduplicate against the reloaded candidates. The schema is
    [mirage.checkpoint.v3]. A v1 file, whose task indices named single
    roots, and a v2 file, whose task list held a level the goal-distance
    cut now skips, are refused with a "not a mirage.checkpoint.v3 file"
    error.

    Saves are atomic (temp file + rename); a crash mid-save leaves the
    previous checkpoint intact. A failed save degrades the run
    ([checkpoint.write]) instead of aborting it. *)

type t

val create : ?interval_s:float -> path:string -> unit -> t
(** Fresh manager writing to [path]. [interval_s] (default 5 s) throttles
    candidate-triggered saves; task completion always saves. *)

val load : string -> (t, string) result
(** Load from a checkpoint file, or from a run directory containing
    [checkpoint.json]. Validates the schema marker and every embedded
    graph ({!Mugraph.Graph.validate}). *)

val path : t -> string

val set_meta : t -> (string * Obs.Jsonw.t) list -> unit
(** Record identity fields (benchmark name, config fingerprint) used to
    refuse resuming into a different search. *)

val meta : t -> string -> Obs.Jsonw.t option

val task_done : t -> piece:int -> task:int -> tasks_total:int -> unit
(** Mark one enumeration task finished; forces a save. *)

val add_candidate : t -> piece:int -> gid:int -> Mugraph.Graph.kernel_graph -> unit
(** Record an emitted candidate; saves at most every [interval_s]. *)

val completed : t -> piece:int -> int list
(** Sorted task indices already finished for [piece]. *)

val candidates : t -> piece:int -> (int * Mugraph.Graph.kernel_graph) list
(** Candidates recorded for [piece], in emission order. *)

val save : t -> unit
(** Force an immediate save (used at the end of a run). *)

val config_fingerprint : Obs.Jsonw.t -> string
(** Digest of a config JSON with the budget/worker fields stripped, so a
    resume with a larger time or node budget is still the "same" search. *)

val graph_to_json : Mugraph.Graph.kernel_graph -> Obs.Jsonw.t
val graph_of_json : Obs.Jsonw.t -> (Mugraph.Graph.kernel_graph, string) result
(** The muGraph codec used inside checkpoints, exposed for tests. *)
