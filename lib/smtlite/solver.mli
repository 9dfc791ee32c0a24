(** The solver front-end used by the generator for abstract-expression
    queries — the stand-in for Z3 in the paper's implementation (§4.3:
    "check results are cached and reused, since during the search Mirage
    may encounter multiple muGraphs with identical abstract expressions
    and SMT queries are relatively expensive").

    Queries of the form [subexpr(E(G), E_O)] are decided by the normal-form
    procedure in {!Absexpr.Nf}, against the goals' index ({!Absexpr.Nf.goal},
    the closure of [E_O] under nested arguments and reified denominators),
    which {!create} builds once; and memoized on the *normal form* of the
    left-hand side, so syntactically different prefixes with equal abstract
    expressions hit the cache. A solver may be shared across search
    domains.

    Every query goes through a {!front}: one per search worker, owned by
    the solver (so its memo lives exactly as long as the solver does).
    A front answers repeats from a private memo without locking and
    batches its query/hit/accept counts until {!flush_front}. *)

type t

type stats = {
  queries : int;
      (** total subexpr queries issued: real queries, not tries. The
          enumerators ask once per distinct value per worker: a worker's
          extension memo keeps the verdict of every value it has asked
          about, across prefixes, subtrees and root classes (see
          [Search.Prefix]). The funnel counts are weighted per root,
          these are not *)
  cache_hits : int;
  cache_misses : int;
  accepted : int;  (** queries that returned true *)
  solve_time_s : float;
      (** cumulative wall time in the normal-form decision procedure
          (cache misses only — the paper's "SMT queries are relatively
          expensive" cost) *)
  disk_hits : int;  (** misses answered by the persistent cache *)
  disk_entries : int;  (** persistent-tier entries (loaded + new) *)
}

type persist = {
  p_load : unit -> Obs.Jsonw.t option;
      (** fetch the stored envelope, [None] on miss *)
  p_store : (unit -> Obs.Jsonw.t) -> unit;
      (** durably store the envelope that the given function builds; it
          may build it later, from another domain, once the search is
          over. Must not raise *)
  p_corrupt : string -> unit;  (** quarantine an unusable stored entry *)
}
(** Storage hooks for the persistent query cache. The solver stays
    storage-agnostic: [Service.Prune_store] wires these to the
    content-addressed result store; tests wire them to a temp file. *)

val create : target:Absexpr.Expr.t list -> t
(** A solver for a fixed set of goal expressions [E_O] (one per output of
    the reference program), with their goal index built. A query succeeds
    if the candidate expression is a subexpression of at least one goal:
    {!Absexpr.Nf.decide} on the index. *)

type front
(** A worker's private memo and batched counters. Use it from one thread
    at a time. *)

val front : t -> int -> front
(** [front t w] is worker [w]'s front, created on first request (a
    search makes a lane's front when the lane starts). Safe from any
    domain: the call takes the solver's lock. *)

val check_front : front -> Absexpr.Nf.t -> bool
(** Memoized [A_eq ∪ A_sub ⊨ subexpr(nf, E_O)]: the front's private
    memo, then the solver's shared memo, then the persistent tier, then
    the decision procedure. The query/hit/accept counts are held back
    until {!flush_front}. *)

val flush_front : front -> unit
(** Add the front's batched counts to the solver's {!stats} and reset
    them. Until then, {!stats} lags by the unflushed batch. *)

val stats : t -> stats
val reset_stats : t -> unit

val disk_hit_ratio : stats -> float
(** [disk_hits / (disk_hits + cache_misses)]: the share of the queries
    that reached past the shared memo which the persistent tier
    answered, so 1 for a warm start that finds every decision on disk
    and 0 for a cold one (also when no query got that far). *)

val prunecache_schema : string
(** ["mirage.smtlite.prunecache.v1"] — the on-disk envelope schema. *)

val goals_key : t -> string
(** Digest of the sorted goal normal forms. A stored envelope whose
    [goals_key] differs answers a different search and is ignored (not
    quarantined) on load. *)

val attach_persist : t -> persist -> unit
(** Load any stored envelope into the persistent tier (schema checked,
    mismatched goal sets skipped, corrupt envelopes handed to
    [p_corrupt]). New decisions collect in memory until {!flush_persist}.
    Call once, before sharing the solver across domains. *)

val flush_persist : t -> unit
(** Store the whole envelope, loaded and new decisions alike, through
    [p_store] once (no-op without {!attach_persist} or when nothing is
    new). New decisions are keyed only when the envelope is built, so a
    search pays nothing per query for a cold store. The generator calls it once, when a search finishes: a search
    makes one durable write, and a search killed before it loses only
    its new decisions, each a few microseconds to remake. Not for
    concurrent calls. *)
