(** Domain-safe wall-time phase accounting for the search engine.

    A profiler owns a set of named phases arranged in slash-separated
    paths ([search/enumerate/task.kernel]); entering a phase pushes a
    frame on the calling execution context's stack, leaving it charges
    the elapsed wall time to the phase ([total]) and the portion not
    covered by nested phases to [self]. Every phase is backed by
    registry counters ([profile.<path>.count/.total_ns/.self_ns]) and a
    per-phase {!Hdr} sketch ([profile.phase.<path>]), so updates are
    lock-free and exact under concurrency, and the numbers surface
    through the ordinary metrics exposition (snapshot, Prometheus)
    without extra plumbing.

    Frame stacks are keyed by (domain, thread) — the same discipline as
    {!Journal} context — because the serving tier runs concurrent
    handler threads on one domain: a per-domain stack alone would
    interleave two requests' phases. Worker domains inherit the
    spawner's phase path via {!saved_path}/{!with_base}, so a worker's
    [task.kernel] phase lands under [search/enumerate] even though it
    runs on a fresh stack.

    Enabled with a timeline, it also keeps each finished phase as one
    span (path, start, duration, domain), exported as Chrome
    [trace_event] JSON by {!to_chrome_json}: the phase table, the trace
    and the Prometheus text share one set of phase names. *)

type t

val create : ?registry:Metrics.t -> unit -> t
(** A standalone profiler (fresh registry by default). *)

val registry : t -> Metrics.t

(** {1 The ambient profiler}

    Like {!Journal}: one process-global profiler that the instrumented
    code records into when enabled, at the cost of a single atomic load
    when disabled. *)

val enable : ?registry:Metrics.t -> ?timeline:bool -> unit -> t
(** Install (replacing any previous) and return the ambient profiler.
    [timeline] (default [false]) also keeps every finished phase as a
    span for {!to_chrome_json}, up to {!timeline_cap} spans. *)

val disable : unit -> unit
val active : unit -> t option

(** {1 Phases} *)

val with_phase : string -> (unit -> 'a) -> 'a
(** [with_phase name f] runs [f] inside phase [name], nested under the
    context's current phase (or at the root). No-op when disabled.
    Exception-safe: the frame is charged even if [f] raises. *)

val saved_path : unit -> string
(** The calling context's current phase path ([""] when disabled or at
    the root) — capture before [Domain.spawn] and replay in the child
    with {!with_base}. *)

val with_base : string -> (unit -> 'a) -> 'a
(** [with_base path f] runs [f] on a fresh frame stack whose root phases
    attach under [path] — the worker side of {!saved_path}. *)

(** {1 Batched timers}

    For hot paths (the abstract-expression prune check runs per
    attempted extension) a full phase per call would double-count
    gettimeofday overhead. A [timer] accumulates count and duration
    locally and {!flush_timer} charges the batch as a single child
    phase of the context's current phase. Counts are exact but the
    clock is read on every 64th call, from a random phase per timer, and
    each sample is charged for 64 calls: the batch duration is an
    unbiased estimate, even over many short batches whose first call is
    their costliest — a few ns amortized per call. A batch's Hdr
    observation (the phase's p50/p99) is its mean sampled call times
    its count; a batch that took no sample records none, so a phase
    of short batches has fewer Hdr observations than batches. *)

type timer

val timer : string -> timer
(** A local accumulator for child phase [name]; pinned to the ambient
    profiler at creation (a no-op timer when disabled). *)

val timed : timer -> (unit -> 'a) -> 'a
val flush_timer : timer -> unit
(** Charge the accumulated batch to [<current path>/<name>] (count,
    total, self, one Hdr observation for a batch that took a sample)
    and reset. Call on the thread that runs the phases the batch
    belongs under. *)

(** {1 Overlay notes}

    Absolute-path time contributions recorded from code that cannot see
    the caller's phase structure (the solver's decision procedure).
    Overlays carry no self time and are excluded from coverage math. *)

val note : string -> float -> unit
(** [note name dt_s] adds one observation of [dt_s] seconds to overlay
    phase [name]. No-op when disabled. *)

(** {1 Snapshots} *)

type phase_snap = {
  p_path : string;
  p_depth : int;  (** number of ['/'] separators in the path *)
  p_overlay : bool;
  p_count : int;
  p_total_s : float;
  p_self_s : float;
  p_hdr : Hdr.snapshot;
}

type snapshot = {
  wall_s : float;  (** since [create] *)
  phases : phase_snap list;  (** registration order *)
}

val snapshot : t -> snapshot

val schema : string
(** ["mirage.profile.v1"] *)

val snapshot_json : ?include_hdrs:bool -> snapshot -> Jsonw.t
(** The schema'd JSON the run report and the metrics exposition embed;
    [include_hdrs:false] drops the per-phase quantile cards (the compact
    wire form). Readers ignore fields they do not know, so a report
    written when the profile also carried a branching factor and a
    prune-rule table still renders. *)

(** {1 The timeline} *)

val timeline_cap : int
(** [65536]: the most spans a timeline keeps. A traced search spawns a
    phase per subtree task (about 118 k in one [search_fig7] round), so
    the timeline keeps the first [timeline_cap] phases to start (the
    run's outer phases among them) and counts the rest. *)

val timeline_counts : t -> int * int
(** [(kept, dropped)]: phases given a timeline slot (each becomes a span
    when it ends), and phases that started after the slots ran out.
    [(0, 0)] without a timeline. *)

val to_chrome_json : t -> Jsonw.t
(** The timeline as a Chrome trace-event array (load in
    [chrome://tracing] or Perfetto): one complete ([ph = "X"]) event per
    kept span, [name] its phase's last path component, microsecond
    [ts] (since the profiler was enabled) and [dur], [tid] the domain
    id, and the full path in [args.path]. Empty without a timeline. *)

(** {1 Analysis} *)

val coverage : Jsonw.t -> (string * float) option
(** [coverage j] — for a {!snapshot_json} value, the root phase with the
    largest total and the fraction of its wall time attributed to its
    direct sub-phases (1.0 for a root with no children and no time).
    [None] when the snapshot has no root phases. *)

val render : Jsonw.t -> (string, string) result
(** Render a {!snapshot_json} value as the human phase table: the phase
    tree with count/total/self and the attribution line ({!coverage}).
    What the search cut is counted by the enumerators
    ([search.<level>.reject*] metrics), not here. *)
