(** Search statistics: how many extensions the enumerators attempted, and
    why candidates were discarded.

    The funnel is derived, not counted. Each cut is counted once, per
    root (see {!Tally}), in its level's [search.<level>.expanded] or
    [search.<level>.reject.<r>] counter, and {!snapshot} sums the kernel
    and block levels' counters into each funnel field, so "funnel = sum
    of levels" holds by construction. Only [search.candidates],
    [search.verified] and [search.resumed] have no level counter.

    The enumerators do not update the counters per extension. Each
    enumeration worker counts into its own {!Tally} buffer and adds the
    batch to the counters when a root task ends, once the lanes join,
    and every {!Tally.batch} expansions in between. So:
    - the counts are exact once [Generator.generate] returns;
    - a live {!snapshot} (e.g. {!Progress}) lags the true counts by at
      most one unflushed batch per enumeration worker;
    - a node budget is checked against the flushed count plus the
      checking worker's own batch. At one worker that is the exact
      count, so the cut lands on the same expansion as an unbatched
      count would. With [w] workers the other [w - 1] batches are
      invisible to the check, so the search may expand up to
      [(w - 1) * Tally.batch] nodes past the budget, beyond the
      usual slack of the extensions already in flight.

    At both levels, every attempted extension of a prefix and its
    rejection reason are counted before any of the prefix's children is
    searched (see {!Prefix}). Expansions keep the order of a fresh
    evaluation of each prefix, so a one-worker node budget cuts at the
    same expansion, and a search cut short has counted every rejection
    of every prefix it started.

    Each {!t} owns a fresh {!Obs.Metrics} registry, so no two searches
    share a count; the daemon keeps totals by adding a finished
    search's counters to its own registry.

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
          rejects *)
  elapsed_s : float;
}

type t

val create : unit -> t
(** A fresh registry holding the two levels' [search.<level>.expanded]
    counters, [search.resumed], [search.candidates] and
    [search.verified]. *)

val registry : t -> Obs.Metrics.t
(** The backing registry, where the enumerators register their level
    counters. *)

val add_candidates : t -> int -> unit
(** Count [n] completing prefixes (a no-op when [n <= 0]). *)

val add_verified : t -> unit
(** Count the run's verified winner. *)

val add_resumed : t -> unit
(** Count a checkpoint's incumbent, emitted again on resume, as one try
    that completed: one [search.resumed] and one candidate. *)

val expanded : t -> int
(** The flushed tries: the sum of three held counters, no registry
    lookup, so a node-budget check stays O(1). *)

val of_counters : ?elapsed_s:float -> (string * int) list -> snapshot
(** The funnel of a registry's counters: each field the sum of its
    kernel and block level counters (plus [search.resumed] for
    [expanded]); a missing counter reads 0. [elapsed_s] defaults to 0. *)

val snapshot : t -> snapshot
(** {!of_counters} of the registry, timed since {!create}. *)

val to_string : snapshot -> string

val funnel_ok : snapshot -> bool
(** Whether the funnel invariant above holds. *)
