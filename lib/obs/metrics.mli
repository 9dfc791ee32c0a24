(** A named metrics registry: counters, gauges and {!Hdr} histograms
    that are registered dynamically and updated lock-free
    ([Atomic]-backed), so the multi-domain search workers can bump them
    concurrently without losing increments.

    Registration (looking a metric up by name) takes a mutex; updating an
    already-registered metric never does. The intended pattern for hot
    loops is therefore: resolve the metric once at the start of a search,
    then [add]/[Hdr.record] through the saved handle.

    A process-wide {!default} registry exists for components with no
    natural per-run registry (the equivalence verifier, the CLI); each
    search run gets its own registry via [Search.Stats] so per-run
    snapshots do not bleed into each other; a caller that keeps totals
    {!absorb}s a finished run's snapshot. *)

type t
(** A registry. *)

type counter
type gauge

val create : unit -> t

val default : unit -> t
(** The process-wide registry (created on first use). *)

(** {1 Registration} *)

val counter : t -> ?help:string -> string -> counter
(** [counter reg name] registers (or retrieves — registration is
    idempotent per name) a monotonically increasing integer counter. *)

val hdr :
  t -> ?help:string -> ?error:float -> ?lo:float -> ?hi:float -> string -> Hdr.t
(** [hdr reg name] registers (idempotently — like the other kinds,
    later [error]/[lo]/[hi] are ignored if [name] exists) a bounded
    relative-error histogram ({!Hdr}), carried through
    {!snapshot}/{!merge}/{!reset} and rendered with quantiles: the
    registry's one distribution kind, e.g. request-latency p50/p99 that
    must stay meaningful from microseconds to minutes. *)

val gauge : t -> ?help:string -> string -> gauge
(** [gauge reg name] registers (idempotently) a float gauge — a
    last-written or high-water value, e.g. a peak shared-memory plan
    size. Gauges merge by {b max} in {!merge}. *)

(** {1 Updates (lock-free)} *)

val bump : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_name : counter -> string
val counter_help : counter -> string

val set_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
(** Raise the gauge to [x] if [x] exceeds the current value (CAS loop —
    exact under concurrency); a no-op otherwise. *)

val gauge_value : gauge -> float
val gauge_name : gauge -> string
val gauge_help : gauge -> string

(** {1 Snapshots and rendering} *)

type snapshot = {
  counters : (string * int) list;  (** in registration order *)
  gauges : (string * float) list;
  hdrs : (string * Hdr.snapshot) list;
}

val snapshot : t -> snapshot

val merge : snapshot list -> snapshot
(** Sum counters by name, take each gauge's max and merge {!Hdr}
    snapshots of equal shape (the first-seen wins otherwise). Used to
    aggregate the per-piece search registries into one report. *)

val absorb : t -> snapshot -> unit
(** [absorb t s] adds [s]'s counters to [t]'s and raises [t]'s gauges
    to [s]'s, by name, registering what [t] lacks ({!Hdr}s are left
    out). *)

val reset : t -> unit
(** Zero every registered metric (registrations survive). *)

val to_table : snapshot -> string
(** Human-readable table: counters, then gauges, then each {!Hdr} with
    count, mean, p50, p99 and max. *)

val to_json : snapshot -> Jsonw.t
