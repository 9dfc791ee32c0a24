(** The solver front-end used by the generator for abstract-expression
    queries — the stand-in for Z3 in the paper's implementation (§4.3:
    "check results are cached and reused, since during the search Mirage
    may encounter multiple muGraphs with identical abstract expressions
    and SMT queries are relatively expensive").

    Queries of the form [subexpr(E(G), E_O)] are decided by the normal-form
    procedure in {!Absexpr.Nf}, against the goals' index ({!Absexpr.Nf.goal},
    the closure of [E_O] under nested arguments and reified denominators),
    which the solver builds once, on its first decision (a search that
    asks no query never builds it); and memoized on the *normal form* of
    the left-hand side, so syntactically different prefixes with equal
    abstract expressions hit the cache. A solver may be shared across search
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
}

val create : target:Absexpr.Expr.t list -> t
(** A solver for a fixed set of goal expressions [E_O] (one per output of
    the reference program). A query succeeds if the candidate expression
    is a subexpression of at least one goal: {!Absexpr.Nf.decide} on the
    index. *)

type front
(** A worker's private memo and batched counters. Use it from one thread
    at a time. *)

val front : t -> int -> front
(** [front t w] is worker [w]'s front, created on first request (a
    search makes a lane's front when the lane starts). Safe from any
    domain: the call takes the solver's lock. *)

val check_front : front -> Absexpr.Nf.t -> bool
(** Memoized [A_eq ∪ A_sub ⊨ subexpr(nf, E_O)]: the front's private
    memo, then the solver's shared memo, then the decision procedure.
    The query/hit/accept counts are held back until {!flush_front}. *)

val flush_front : front -> unit
(** Add the front's batched counts to the solver's {!stats} and reset
    them. Until then, {!stats} lags by the unflushed batch. *)

val stats : t -> stats
val reset_stats : t -> unit
