(** Request telemetry for the serving tier: per-stage latency sketches
    ({!Obs.Hdr} — queue wait, cache probe, search, serialize, total),
    exclusive per-outcome counters (hit/miss/coalesced/error/timeout/
    overloaded, plus a degraded tally), and the schema'd snapshot
    behind the wire protocol's [metrics] op, whose ["counters"] and
    ["gauges"] sections carry the whole registry.

    One {!sample} accompanies each request through dispatch: stages are
    appended as they complete, the outcome settles once (first write
    wins), and {!finish} folds the sample into the lock-free registry
    metrics exactly once. *)

val snapshot_schema : string
(** ["mirage.service.metrics.v1"]. *)

val stages : string list
(** The closed stage vocabulary:
    [queue_wait; cache_probe; search; serialize; total]. Sketches are
    registered as ["serve." ^ stage]. *)

val outcomes : string list
(** [hit; miss; coalesced; error; timeout; overloaded] — exclusive
    per optimize request;
    counters are ["serve.outcome." ^ outcome] (plus
    [serve.outcome.degraded], which is not exclusive). *)

type t

val create : ?registry:Obs.Metrics.t -> unit -> t
(** Register the stage sketches and outcome counters (idempotently) in
    [registry] (default: the process-wide one). *)

val registry : t -> Obs.Metrics.t
val uptime_s : t -> float

(** {1 Per-request samples} *)

type sample

val start : op:string -> sample
val add_stage : sample -> string -> float -> unit
(** [add_stage s name dt] appends a completed stage ([dt] seconds). *)

val time_stage : sample -> string -> (unit -> 'a) -> 'a
(** Time [f] and append it as a stage (recorded even if [f] raises). *)

val set_outcome : sample -> string -> unit
(** Settle the outcome; later calls are no-ops, so a coalesced follower
    that subsequently errors stays coalesced. *)

val set_degraded : sample -> unit

val finish : t -> sample -> unit
(** Fold the sample into the metrics: every timed stage into its
    sketch; total latency and the outcome counter only for optimize
    requests (status/metrics polls must not drag p50 down). Idempotent. *)

val sample_op : sample -> string

(** {1 Exposition} *)

val cache_rates : Obs.Metrics.snapshot -> int * int * float
(** [(hits, misses, hit_rate)] derived from the [service.cache.*]
    counters in a registry snapshot; rate is 0 when no lookups ran. *)

val snapshot_json :
  ?extra:(string * Obs.Jsonw.t) list -> t -> in_flight:int -> unit -> Obs.Jsonw.t
(** The {!snapshot_schema} document: uptime, in-flight, request and
    outcome counts, cache hit rate (derived from the cache counters in
    the registry), journal drop counts, the ["search"] funnel section,
    quantile cards for every [serve.*] and [profile.phase.*] sketch, the
    full counter/gauge dump and — when the ambient {!Obs.Profile} is
    enabled — a compact ["profile"] digest (the profile's wall seconds
    and each depth-1 phase's seconds). [extra] fields are appended at
    top level (the server adds cache occupancy). *)

val prometheus : t -> string
(** {!Obs.Prom} rendering of the registry. *)

val check_snapshot : Obs.Jsonw.t -> (unit, string) result
(** Structural validation of a {!snapshot_json} document (schema tag,
    field types/ranges, quantile monotonicity) — used by the CLI and CI
    to reject a malformed scrape at the edge. *)
