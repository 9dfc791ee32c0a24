(** A named metrics registry: counters and histograms that are registered
    dynamically and updated lock-free ([Atomic]-backed), so the
    multi-domain search workers can bump them concurrently without losing
    increments.

    Registration (looking a metric up by name) takes a mutex; updating an
    already-registered metric never does. The intended pattern for hot
    loops is therefore: resolve the counter/histogram once at the start of
    a search, then [bump]/[observe] through the saved handle.

    A process-wide {!default} registry exists for components with no
    natural per-run registry (the equivalence verifier, the CLI); each
    search run also gets its own registry via [Search.Stats] so per-run
    snapshots do not bleed into each other. *)

type t
(** A registry. *)

type counter
type histogram
type gauge

val create : unit -> t

val default : unit -> t
(** The process-wide registry (created on first use). *)

(** {1 Registration} *)

val counter : t -> ?help:string -> string -> counter
(** [counter reg name] registers (or retrieves — registration is
    idempotent per name) a monotonically increasing integer counter. *)

val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram
(** [histogram reg name] registers a histogram with the given upper
    bucket bounds (strictly increasing; an implicit overflow bucket is
    appended). Defaults to {!duration_buckets}. If [name] is already
    registered the existing histogram is returned and [buckets] is
    ignored. *)

val hdr :
  t -> ?help:string -> ?error:float -> ?lo:float -> ?hi:float -> string -> Hdr.t
(** [hdr reg name] registers (idempotently — like the other kinds,
    later [error]/[lo]/[hi] are ignored if [name] exists) a bounded
    relative-error latency histogram ({!Hdr}), carried through
    {!snapshot}/{!merge}/{!reset} and rendered with quantiles. Use it
    where a fixed-bucket {!histogram} is too coarse: request-latency
    p50/p99 that must stay meaningful from microseconds to minutes. *)

val gauge : t -> ?help:string -> string -> gauge
(** [gauge reg name] registers (idempotently) a float gauge — a
    last-written or high-water value, e.g. a peak shared-memory plan
    size. Gauges merge by {b max} in {!merge}. *)

val duration_buckets : float array
(** Exponential bounds for durations in seconds, 1 µs … ~16 s. *)

val linear_buckets : lo:float -> step:float -> n:int -> float array
(** [lo; lo+step; …] — [n] bounds, e.g. for search depths. *)

(** {1 Updates (lock-free)} *)

val bump : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_name : counter -> string
val counter_help : counter -> string
val histogram_name : histogram -> string
val histogram_help : histogram -> string

val observe : histogram -> float -> unit
(** Record one observation: the owning bucket, the total count and the
    running sum are all updated atomically (exact under concurrency). *)

val observe_n : histogram -> float -> int -> unit
(** [observe_n h x k] records [k] observations of [x] at the cost of
    one: the way hot loops drain a locally batched histogram (count per
    value) into the shared one. A no-op when [k <= 0]. *)

val set_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
(** Raise the gauge to [x] if [x] exceeds the current value (CAS loop —
    exact under concurrency); a no-op otherwise. *)

val gauge_value : gauge -> float
val gauge_name : gauge -> string
val gauge_help : gauge -> string

(** {1 Snapshots and rendering} *)

type hist_snapshot = {
  bounds : float array;  (** upper bounds, overflow excluded *)
  counts : int array;  (** per-bucket counts; length = bounds + 1 (overflow) *)
  count : int;
  sum : float;
}

type snapshot = {
  counters : (string * int) list;  (** in registration order *)
  hists : (string * hist_snapshot) list;
  gauges : (string * float) list;
  hdrs : (string * Hdr.snapshot) list;
}

val snapshot : t -> snapshot

val merge : snapshot list -> snapshot
(** Sum counters by name; histograms with identical bounds are merged
    bucket-wise (first-seen bounds win otherwise). Used to aggregate the
    per-piece search registries into one report. *)

val reset : t -> unit
(** Zero every registered metric (registrations survive). *)

val to_table : snapshot -> string
(** Human-readable table: counters first, then each histogram with
    count/mean and non-empty buckets. *)

val to_json : snapshot -> Jsonw.t
