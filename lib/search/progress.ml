(* Shared live-progress state for an in-flight search: the generator
   updates it from whatever domain/thread is doing the work, observers
   (the serving tier's progress pusher) read a consistent-enough view
   without any locking. All fields are atomics; the funnel counts are
   derived from the search's own [Stats] registry, whose counters only
   ever grow, so an observer's [nodes_expanded] is monotone across
   reads. The enumerators add to it in per-worker batches, so a live
   read trails the true count by at most one batch per worker. *)

type t = {
  phase : string Atomic.t;
  stats : Stats.t option Atomic.t;
  best_us : float Atomic.t;  (* min-merged; [infinity] until seeded *)
  stolen : (unit -> int) option Atomic.t;
      (* scheduler health: successful work steals so far *)
}

let create () =
  {
    phase = Atomic.make "pending";
    stats = Atomic.make None;
    best_us = Atomic.make infinity;
    stolen = Atomic.make None;
  }

let set_phase t p = Atomic.set t.phase p
let phase t = Atomic.get t.phase
let attach_stats t s = Atomic.set t.stats (Some s)
let attach_stolen t f = Atomic.set t.stolen (Some f)

let rec note_best t us =
  if Float.is_finite us && us >= 0.0 then begin
    let cur = Atomic.get t.best_us in
    if us < cur && not (Atomic.compare_and_set t.best_us cur us) then
      note_best t us
  end

type view = {
  v_phase : string;
  v_nodes_expanded : int;
  v_candidates : int;
  v_verified : int;
  v_best_us : float option;
  v_tasks_stolen : int;
}

let view t =
  let nodes, cands, verified =
    match Atomic.get t.stats with
    | None -> (0, 0, 0)
    | Some s ->
        let snap = Stats.snapshot s in
        (snap.Stats.expanded, snap.Stats.candidates, snap.Stats.verified)
  in
  let best = Atomic.get t.best_us in
  {
    v_phase = Atomic.get t.phase;
    v_nodes_expanded = nodes;
    v_candidates = cands;
    v_verified = verified;
    v_best_us = (if Float.is_finite best then Some best else None);
    v_tasks_stolen =
      (match Atomic.get t.stolen with None -> 0 | Some f -> max 0 (f ()));
  }
