(* Prune-query cache persistence: solver persist hooks over the
   content-addressed result store (see prune_store.mli). *)

let fingerprint solver =
  Digest.to_hex (Digest.string ("prune:" ^ Smtlite.Solver.goals_key solver))

let persist ~cache solver =
  let fp = fingerprint solver in
  {
    Smtlite.Solver.p_load = (fun () -> Cache.find ~cls:`Prune cache fp);
    p_store = (fun env -> Cache.store ~cls:`Prune cache fp env);
    p_corrupt =
      (fun reason ->
        Cache.quarantine cache fp ~reason:("prune-cache: " ^ reason));
  }

let attach ~cache solver =
  Smtlite.Solver.attach_persist solver (persist ~cache solver)
