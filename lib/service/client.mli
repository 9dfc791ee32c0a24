(** One-shot client for the optimization service. Every call opens a
    fresh connection, sends one frame, reads one response. Thread- and
    domain-safe (no shared state). *)

val request :
  ?on_progress:(Obs.Jsonw.t -> unit) ->
  socket_path:string ->
  Obs.Jsonw.t ->
  (Obs.Jsonw.t, string) result
(** Send one frame. A ["request_id"] is minted ({!Reqid}) unless the
    request already carries a valid one; the server echoes it in the
    response and stamps it on every journal event of the dispatch.

    [on_progress] opts the request into live progress streaming: the
    request gains a ["progress": true] field and the callback receives
    each interleaved {!Proto.progress_frame} ({!Proto.progress_schema})
    as it arrives, before [request] returns with the final response.
    Without it the connection carries exactly one response frame —
    byte-identical to a client that predates progress streaming. *)

val optimize :
  ?fields:(string * Obs.Jsonw.t) list ->
  ?on_progress:(Obs.Jsonw.t -> unit) ->
  socket_path:string ->
  benchmark:string ->
  unit ->
  (Obs.Jsonw.t, string) result
(** [optimize ~socket_path ~benchmark ()] requests optimization of a
    named Fig. 7 benchmark. [fields] adds request fields
    ([max_block_ops], [budget_s], [device], …). *)

val optimize_graph :
  ?fields:(string * Obs.Jsonw.t) list ->
  ?on_progress:(Obs.Jsonw.t -> unit) ->
  socket_path:string ->
  Obs.Jsonw.t ->
  (Obs.Jsonw.t, string) result
(** Optimize an inline muGraph (Checkpoint codec JSON). *)

val status : socket_path:string -> (Obs.Jsonw.t, string) result

val shutdown :
  ?drain_s:float -> socket_path:string -> unit -> (Obs.Jsonw.t, string) result
(** Ask the daemon to stop. [drain_s] requests a graceful drain:
    in-flight searches get that long to finish before their budgets are
    cancelled. *)

val error_kind : Obs.Jsonw.t -> string option
(** The machine-readable kind of an error response ([overloaded],
    [timeout], [bad_request], [bad_frame], [internal]); [None] for a
    non-error response. *)

val retry_after_s : Obs.Jsonw.t -> float option
(** The back-off hint a load-shed rejection carries, when present. *)

val request_with_retry :
  ?on_progress:(Obs.Jsonw.t -> unit) ->
  ?max_attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?on_retry:(attempt:int -> delay_s:float -> reason:string -> unit) ->
  socket_path:string ->
  Obs.Jsonw.t ->
  (Obs.Jsonw.t, string) result
(** {!request} with bounded, jittered exponential back-off for
    idempotent ops ([optimize] / [status] / [metrics]) only —
    anything else falls through to a single attempt. Retried failures:
    transport errors (connect refused, connection closed) and typed
    load-shed responses ([overloaded]), honoring the
    server's [retry_after_s] hint as a floor on the delay. A typed
    [timeout] is final — the request's own deadline expired. One
    request id is pinned across all attempts ([max_attempts], default
    5; delays grow from [base_delay_s] (default 0.05) capped at
    [max_delay_s] (default 2), each scaled by ±25% jitter).
    [on_retry] observes each back-off decision. *)

val metrics :
  ?format:string -> socket_path:string -> unit -> (Obs.Jsonw.t, string) result
(** The telemetry exposition snapshot ({!Telemetry.snapshot_schema});
    [~format:"prometheus"] asks for the text format instead. *)

val wait_ready : ?timeout_s:float -> socket_path:string -> unit -> bool
(** Poll [status] until the daemon answers (or the timeout elapses). *)
