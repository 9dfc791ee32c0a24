(** Live-progress state shared between an in-flight search and its
    observers (the serving tier's progress streaming). Lock-free: the
    generator writes from worker domains, an observer thread polls
    concurrently. [nodes_expanded] is monotone across reads because it
    is read straight from the search's funnel counters, which the
    enumerators add to in per-subtree batches: a read trails the true
    count by at most one batch ({!Tally.batch} expansions) per
    worker. *)

type t

val create : unit -> t

val set_phase : t -> string -> unit
(** The coarse search phase ([enumerate], then [finalize]). *)

val phase : t -> string

val attach_stats : t -> Stats.t -> unit
(** Wire the search's funnel counters in; until then the view reports
    zero nodes. *)

val note_best : t -> float -> unit
(** Lower the best-known candidate cost (µs); min-merged, so racing
    workers cannot regress it. *)

val attach_stolen : t -> (unit -> int) -> unit
(** Wire in the work-stealing pool's successful-steal counter; until
    then the view reports zero steals. *)

type view = {
  v_phase : string;
  v_nodes_expanded : int;
  v_candidates : int;
  v_verified : int;
  v_best_us : float option;  (** [None] until a cost is known *)
  v_tasks_stolen : int;  (** successful work steals so far *)
}

val view : t -> view
