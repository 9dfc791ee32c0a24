(** Search statistics: how many extensions the enumerators attempted, and
    why candidates were discarded.

    The enumerators do not update these counters per extension. Each
    enumeration subtree counts into its own domain-owned {!Tally} and
    adds the batch here when the subtree ends (also when it crashes or
    the budget cuts it) and every {!Tally.batch} expansions in
    between. So:
    - the counts are exact once [Generator.generate] returns;
    - a live {!snapshot} (e.g. {!Progress}) lags the true counts by at
      most one unflushed batch per enumeration worker;
    - a node budget is checked against this shared count plus the
      checking subtree's own batch. At one worker that is the exact
      count, so the cut lands on the same expansion as an unbatched
      count would. With [w] workers the other [w - 1] batches are
      invisible to the check, so the search may expand up to
      [(w - 1) * Tally.batch] nodes past the budget, beyond the
      usual slack of the extensions already in flight.

    Counts are per root: each try of a root class's search counts once
    per member, and a completing prefix one candidate per member that
    emitted a graph (see {!Block_enum}). So every count equals the one a
    separate search of each root would give.

    At both levels, every attempted extension of a prefix and its
    rejection reason are counted before any of the prefix's children is
    searched (see {!Prefix}; the kernel level now visits in the block
    level's order too). Expansions keep the order of a fresh evaluation
    of each prefix, so a one-worker node budget cuts at the same
    expansion, and a search cut short has counted every rejection of
    every prefix it started.

    Counters are backed by a named {!Obs.Metrics} registry (one fresh
    registry per search unless the caller supplies one), so the same
    numbers are available both as this fixed [snapshot] record — the
    stable programmatic interface — and through the registry's generic
    snapshot/table/JSON machinery, alongside any extra metrics the
    enumerators register dynamically (per-depth histograms, auxiliary
    rejection counters).

    The funnel invariant, by construction (every attempted extension is
    counted once, and every rejection and every candidate corresponds to
    a distinct attempt):

    [expanded >= shape_rejected + memory_rejected + pruned_abstract +
     canonical_rejected + candidates] *)

type snapshot = {
  expanded : int;
      (** extensions attempted by the enumerators (one per operator
          instantiation considered against a prefix) *)
  shape_rejected : int;  (** shape inference failed *)
  memory_rejected : int;  (** exceeded the shared-memory limit *)
  pruned_abstract : int;  (** rejected by the subexpression check *)
  canonical_rejected : int;  (** violated the canonical rank order *)
  candidates : int;  (** completing prefixes submitted to verification *)
  verified : int;
  duplicates : int;
      (** recomputed an existing value: the enumerators' [Duplicate]
          rejects, the sum of the two levels'
          [search.<level>.reject_depth.duplicate] histograms *)
  elapsed_s : float;
}

type t

val create : ?registry:Obs.Metrics.t -> unit -> t
(** Registers the funnel counters (named [search.*]) in [registry]
    (default: a fresh registry, so concurrent searches do not share).
    Passing a shared registry accumulates across searches. *)

val registry : t -> Obs.Metrics.t
(** The backing registry — enumerators register their own histograms
    here, and callers can render everything with
    [Obs.Metrics.(to_table (snapshot (registry t)))]. *)

(** The funnel counters. *)
type kind =
  | Expanded
  | Shape
  | Memory
  | Pruned
  | Canonical
  | Candidates
  | Verified
  | Duplicates

val add : t -> kind -> int -> unit
(** [add t k n] adds [n] to counter [k] (one atomic add; a no-op when
    [n <= 0]). The enumerators call it once per flushed batch; the
    generator once per resumed incumbent or verified winner. *)

val expanded : t -> int
(** Current value of the expanded counter: flushed batches only. *)

val snapshot : t -> snapshot
val to_string : snapshot -> string

val funnel_ok : snapshot -> bool
(** Whether the funnel invariant above holds. *)
