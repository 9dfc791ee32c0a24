(* Prune-query cache persistence: solver persist hooks over the
   content-addressed result store (see prune_store.mli). *)

let fingerprint solver =
  Digest.to_hex (Digest.string ("prune:" ^ Smtlite.Solver.goals_key solver))

let persist ~cache solver =
  let fp = fingerprint solver in
  {
    Smtlite.Solver.p_load = (fun () -> Cache.find ~cls:`Prune cache fp);
    p_store = (fun build -> Cache.store ~cls:`Prune cache fp (build ()));
    p_corrupt =
      (fun reason ->
        Cache.quarantine cache fp ~reason:("prune-cache: " ^ reason));
  }

let attach ~cache solver =
  Smtlite.Solver.attach_persist solver (persist ~cache solver)

let attach_deferred ~cache solver =
  let p = persist ~cache solver in
  let pending = ref None in
  Smtlite.Solver.attach_persist solver
    { p with Smtlite.Solver.p_store = (fun build -> pending := Some build) };
  fun () ->
    Option.iter p.Smtlite.Solver.p_store !pending;
    pending := None
