(** Glue between the solver's persistent prune-query cache and the
    content-addressed {!Cache} store. One envelope per goal set: the
    fingerprint is a digest of the solver's {!Smtlite.Solver.goals_key},
    so every search over the same specification — across restarts,
    pieces of a sharded run, or a whole fleet sharing the cache
    directory — reads and extends the same entry. Storage inherits the
    result store's guarantees: crash-safe temp+rename writes, schema
    checking, and quarantine of corrupt entries. *)

val fingerprint : Smtlite.Solver.t -> string
(** The content address of a solver's prune-cache envelope (exposed for
    tests and forensics). *)

val persist : cache:Cache.t -> Smtlite.Solver.t -> Smtlite.Solver.persist
(** The storage hooks of a solver's envelope in [cache], at its
    {!fingerprint}. *)

val attach : cache:Cache.t -> Smtlite.Solver.t -> unit
(** Wire the solver's persistence to [cache] ({!persist}): load any
    stored envelope now; the search stores the envelope once, when it
    finishes ({!Smtlite.Solver.flush_persist}). Call once per solver,
    before the search starts. *)

val attach_deferred : cache:Cache.t -> Smtlite.Solver.t -> unit -> unit
(** {!attach}, except that the search's store only keeps the
    envelope's builder: the returned function builds the envelope and
    writes it durably (once; a no-op when the search stored nothing). The daemon calls it after it
    has answered the request. Call it on the domain that ran the
    search, or after that search returned. *)
