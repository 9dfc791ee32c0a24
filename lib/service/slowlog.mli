(** Slow-request forensics: when an optimize request's total latency
    crosses a threshold, write a self-contained report directory named
    by request id — [report.json] envelope (stages, outcome,
    threshold) and [journal.jsonl] (the global journal sliced to
    exactly that rid, search-worker events included).

    Capture is best-effort (it never raises into the request path) and
    bounded by [max_reports] so a misconfigured threshold cannot fill
    the disk. *)

val report_schema : string
(** ["mirage.service.slow_report.v1"]. *)

type t

val create :
  ?registry:Obs.Metrics.t ->
  ?max_reports:int ->
  dir:string ->
  threshold_s:float ->
  unit ->
  t
(** Registers a [serve.slow_reports] counter in [registry].
    [max_reports] defaults to 32. *)

val dir : t -> string
val threshold_s : t -> float

val captured : t -> int
(** Reports written so far. *)

val skipped : t -> int
(** Slow requests not captured (cap reached or capture failed). *)

val journal_slice :
  path:string -> rid:string -> (Obs.Jsonw.t list, string) result
(** The journal events carrying exactly this rid, in file order — the
    filter the report directory is built from, exposed for tests and
    [mirage_cli explain]-style tooling. *)

val maybe_capture : t -> Telemetry.sample -> response:Obs.Jsonw.t -> unit
(** Capture a report if the (finished) sample is an optimize request at
    or above the threshold. Never raises. *)
