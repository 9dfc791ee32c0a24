(** Checkpoint/resume for the search runtime.

    A checkpoint file ([checkpoint.json] in the run directory) records,
    per partition piece, which enumeration tasks have completed and the
    search's verified incumbent (the least candidate confirmed so far,
    §5's "best verified muGraph", with its candidate id). Tasks are
    deterministic given the spec and config — the kernel-level pass plus
    one task per block-level root class ({!Block_enum.root_class}) — so
    an index-based cursor is a sound resume point: completed tasks are
    skipped and interrupted ones re-run. A resumed search re-emits the
    saved incumbent and verifies it again, since a file on disk is
    outside input. The incumbent is installed inside the task that
    emitted it, before that task completes, so each save at a task's
    completion holds one at least as good as every candidate of a
    completed task, and a resumed search ends with the uninterrupted
    one's winner.

    The schema is [mirage.checkpoint.v4]. A v1 file, whose task indices
    named single roots, a v2 file, whose task list held a level the
    goal-distance cut now skips, and a v3 file, which held every
    unverified candidate, are refused with a "not a
    mirage.checkpoint.v4 file" error.

    Saves are atomic (temp file + rename); a crash mid-save leaves the
    previous checkpoint intact. A failed save degrades the run
    ([checkpoint.write]) instead of aborting it. *)

type t

val create : path:string -> t
(** Fresh manager writing to [path]. *)

val load : string -> (t, string) result
(** Load from a checkpoint file, or from a run directory containing
    [checkpoint.json]. Validates the schema marker and every embedded
    graph ({!Mugraph.Graph.validate}). *)

val set_meta : t -> (string * Obs.Jsonw.t) list -> unit
(** Record identity fields (benchmark name, config fingerprint) used to
    refuse resuming into a different search. *)

val meta : t -> string -> Obs.Jsonw.t option

val task_done : t -> piece:int -> task:int -> unit
(** Mark one enumeration task finished; forces a save. *)

val set_incumbent :
  t -> piece:int -> gid:int -> Mugraph.Graph.kernel_graph -> unit
(** Record [piece]'s new verified incumbent (candidate [gid]). It is
    written by the next save. *)

val completed : t -> piece:int -> int list
(** Sorted task indices already finished for [piece]. *)

val incumbents : t -> (int * (int * Mugraph.Graph.kernel_graph)) list
(** [(piece, (gid, graph))] for every piece that has an incumbent, by
    ascending piece. *)

val save : t -> unit
(** Force an immediate save (used at the end of a run). *)

val config_fingerprint : Obs.Jsonw.t -> string
(** Digest of a config JSON with the budget/worker fields stripped, so a
    resume with a larger time or node budget is still the "same" search. *)

val graph_to_json : Mugraph.Graph.kernel_graph -> Obs.Jsonw.t
val graph_of_json : Obs.Jsonw.t -> (Mugraph.Graph.kernel_graph, string) result
(** The muGraph codec used inside checkpoints, exposed for tests. *)
