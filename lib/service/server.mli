(** The optimization service daemon.

    A Unix-domain-socket server speaking the {!Proto} wire protocol.
    Requests are JSON objects with an ["op"] field:

    - [{"op":"optimize", "benchmark":<name>}] (or ["graph": <codec json>],
      plus optional overrides [max_block_ops] / [budget_s] / [workers] /
      [device]; [workers] must lie in [1 .. Search.Config.default_workers]
      and [budget_s] must be finite and positive, and it only tightens
      the server's own budget) — resolve the spec, fingerprint it ({!Fingerprint}),
      serve from the {!Cache} when possible, otherwise run the §4 search
      exactly once per distinct in-flight fingerprint (single-flight
      coalescing) on one of [max_concurrent_searches] long-lived
      search-slot domains, put a final result in the cache's memory
      tier and answer; the slot then writes the result durably before it
      takes its next search; ["progress": true] (with
      optional [progress_interval_ms], default 100) opts the connection
      into interleaved {!Proto.progress_frame} events while the search
      — own or coalesced — is in flight, each tagged with this
      request's id;
    - [{"op":"status"}] — uptime, counters, admission and cache
      occupancy, hit rate;
    - [{"op":"metrics"}] — the {!Telemetry.snapshot_schema} exposition
      (stage latency quantiles, outcome counters, cache hit rate, and
      every registry counter and gauge), or Prometheus text with
      ["format":"prometheus"];
    - [{"op":"shutdown"}] — respond, then stop accepting; an optional
      ["drain_s"] gives in-flight searches that long to finish before
      their budgets are cancelled (graceful drain).

    The daemon is armored against overload and hostile peers:
    {!Admit} bounds live connections and queued searches (typed
    ["overloaded"] rejections carrying [retry_after_s] = 0.5); every
    frame read/write runs under a deadline
    ({!Proto}), so a slowloris peer is disconnected after
    [frame_timeout_s] and its handler thread reaped; a client-supplied
    ["deadline_ms"] bounds the whole request — queue wait, search
    budget, coalesced wait — and a request, leader or follower, whose
    answer is not ready by it is answered a typed ["timeout"]. Error responses always carry ["error"] (the machine-
    readable kind: [bad_request], [overloaded], [timeout], [bad_frame],
    [internal]) next to the human ["message"].

    Every request carries a request id ({!Reqid}; the server mints one
    for bare frames) which is echoed in the response, installed as
    journal context for the whole dispatch — search worker domains
    included — and recorded by coalesced followers as the leader's id
    ([served_by]). A {!Telemetry.sample} times the stages (cache probe,
    queue wait, search, serialize, total) into {!Telemetry}.

    The request lifecycle is journaled through {!Obs.Journal}
    ([request.recv], [cache.hit]/[cache.miss], [request.coalesced],
    [search.start]/[search.done], [request.done]); the concurrency
    stress test counts [search.start] events to prove coalescing. *)

type t

val create :
  ?mem_capacity:int ->
  ?registry:Obs.Metrics.t ->
  ?device:Gpusim.Device.t ->
  ?base_config:Search.Config.t ->
  ?max_concurrent_searches:int ->
  ?max_connections:int ->
  ?max_queue_depth:int ->
  ?frame_timeout_s:float ->
  ?idle_timeout_s:float ->
  ?cache_max_bytes:int ->
  socket_path:string ->
  cache_dir:string ->
  unit ->
  t
(** Each candidate is verified with 2 finite-field trials.

    Hardening knobs: [max_connections] (default 64) / [max_queue_depth]
    (default 64) bound live connections and queued searches (0 =
    unlimited); [frame_timeout_s] (default 10) bounds each frame
    read/write and [idle_timeout_s] (default 30) bounds the wait for a
    connection's first byte (0 = unlimited); [cache_max_bytes]
    (default 0 = unlimited) caps the disk cache tier. *)

val cache : t -> Cache.t
val telemetry : t -> Telemetry.t
val admit : t -> Admit.t

val handle_request :
  ?push:(Obs.Jsonw.t -> unit) -> t -> Obs.Jsonw.t -> Obs.Jsonw.t
(** Dispatch one request in the calling thread — the in-process entry
    point the tests use. A socket request takes the same path, which
    adds only the frame write of the answer (timed as the [serialize]
    stage). A request whose handling raises is answered a typed
    [internal] error. [push] receives interleaved
    {!Proto.progress_frame} events while an optimize request that opted
    in (["progress": true]) has a search in flight; it is never called
    after [handle_request] returns. *)

val start : t -> unit
(** Bind the socket and start the accept loop in a background thread. *)

val wait : t -> unit
(** Block until the daemon stops (shutdown request or {!stop}), then
    join outstanding handlers and the search-slot domains (each after
    its pending durable write), and remove the socket file. *)

val stop : t -> unit
(** Close the listener, mark the daemon stopping, and join the
    search-slot domains, each once its search under way has settled its
    flight and made its write durable. A search asked for later, through
    {!handle_request}, starts a slot afresh. *)

val drain_writes : t -> unit
(** Block until every search slot is idle: each search under way has
    settled its flight, and its result is on disk. A miss is answered
    once its flight settles, before its write is durable, so a caller
    that reads the cache directory right after one calls this first. *)

val shutdown : ?drain_s:float -> t -> unit
(** {!stop}, plus an optional graceful drain: give in-flight searches
    [drain_s] seconds to land their results, then cancel the budgets of
    whatever is still running so those flights answer with best-so-far
    instead of blocking shutdown. *)

val handler_count : t -> int
(** Live connection-handler threads. Handlers are reaped as their
    connections close, so this returns to 0 on an idle daemon — the
    leak-freedom assertion the torture test makes. The [status] answer
    and the metrics snapshot report it as ["in_flight"], which over the
    socket counts the asking connection too. *)

val flight_count : t -> int
(** Distinct searches currently in flight (single-flight table size). *)

val run : t -> unit
(** [start] then [wait] — the CLI foreground mode. *)

val stopping : t -> bool
