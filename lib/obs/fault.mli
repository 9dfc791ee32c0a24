(** Fault injection for chaos testing.

    Probe points across the pipeline call {!trip}[ "point"]; when the
    point is armed — via [MIRAGE_FAULT=point:rate[:count]] in the
    environment or {!configure} from a test — the call raises
    {!Injected} with the configured probability, up to [count] times.
    The surrounding quarantine/degradation machinery (worker
    supervision, journal write protection, ILP fallback) is what is
    under test.

    Firing is deterministic: the decision hashes the point name and its
    call ordinal, so a failing chaos run replays bit-identically.

    Spec grammar (comma-separated):
    {v point:rate[:count] v}
    e.g. [MIRAGE_FAULT=enum.block:1.0:2,verify:0.25]. *)

exception Injected of string
(** Raised by {!trip} when the named point fires. *)

val known_points : string list
(** The documented probe points: [enum.block], [enum.kernel], [verify],
    [ilp], [journal.write], [report.finalize], [serve.slow] and
    [serve.join] (a daemon request stalls before its cache probe, or
    between a missed probe and the single-flight lookup),
    [serve.search] (a daemon search raises as it starts). {!trip}
    accepts any name. *)

val trip : string -> unit
(** Raise {!Injected} if the named point is armed and fires; a no-op
    (one atomic load) when nothing is armed. *)

val configure : string -> (unit, string) result
(** Arm points from a spec string, replacing any previous configuration
    (including the environment's). [""] disarms everything. *)

val parse : string -> (unit, string) result
(** Validate a spec without installing it. *)

val clear : unit -> unit
(** Disarm all points. *)

val armed : unit -> bool

val fired : unit -> (string * int) list
(** Injection counts per armed point (only points that fired). *)
