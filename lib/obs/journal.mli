(** The search flight recorder: a domain-safe, append-only JSONL event
    journal. Where {!Metrics} answers "how many tries were pruned?", the
    journal answers "what became of candidate #17?" — every emitted
    muGraph, verifier verdict and cost attribution is one self-describing
    line. It records candidates, not tries: an enumerator's tries and
    their reject reasons are counted (the search funnel, the
    [search.<level>.reject*] metrics), never journaled, so a journaled search runs at a plain search's
    speed and returns its answer.

    One writer: {!emit} takes the journal's lock, stamps [seq] and [ts],
    serializes the line, writes it and flushes the channel. So file
    order is [seq] order, lines are never torn or interleaved, and once
    {!emit} returns its line is in the file. Measured traffic, on a
    2-core VM (EXPERIMENTS E37): a reported search, [optimize lora
    --budget 5 -j 2 --report D], writes ~1.7 k events/s from two
    domains (8.3 k events, 1.3 MB in 5 s); a journaled daemon under a
    serve_mix-like load (two clients, one search per spec, then five
    cache reads each) writes ~4 events per request, ~3 k events/s. At
    both, a lock and a flush per event left the search's expansions
    and the requests' mean latency within noise of the per-domain
    buffers this writer replaced.

    Journaling is off by default: {!event} costs one atomic load when no
    journal is installed. [mirage_cli optimize --report DIR] enables it.

    Line schema (one JSON object per line):
    {v
    {"seq":412,"ts":0.0137,"dom":3,"ev":"verify.verdict",
     "cand":17,"verdict":"equivalent", ...event fields...}
    v}

    The event types: [graph.emit] (a candidate muGraph, with a fresh
    ["cand"] id), [cand.crash] (a crashed enumeration task or verification),
    [verify.verdict], [cost.kernel] and [cost.total] (a candidate's
    verdict and cost, under its ["cand"]), and the serving tier's
    [search.*], [request.*], [cache.*], [conn.*], [admit.*] and
    [shutdown.*] events. *)

type t

val create : path:string -> unit -> t
(** Open a journal writing to [path] (truncates). *)

val path : t -> string

val emit : t -> ?cand:int -> typ:string -> (string * Jsonw.t) list -> unit
(** Append one event and flush it to the file. [cand] tags the event
    with a candidate id (from {!fresh_id}) so a candidate's lifecycle can
    be reassembled; negative ids are omitted from the line. Safe from any
    domain. A no-op once the journal is closed. *)

val fresh_id : t -> int
(** A process-unique candidate id (atomic counter, starts at 0). *)

val dropped : t -> int
(** Events lost to failed writes (disk full, injected [journal.write]
    fault). A failed write drops that one event, bumps the
    [journal.dropped_events] counter in the default metrics registry,
    degrades the run ([Budget.degrade "journal.write"]), logs one
    warning and keeps the search alive. The fault point trips before any
    byte of the line reaches the channel, so an injected fault never
    tears a line. *)

(** {1 Ambient event context}

    Fields stamped onto every event emitted by the current thread —
    the serving tier installs [("rid", Str id)] around request
    dispatch so one request id joins a client call to its search
    forensics. Keyed by (domain, thread) — threads sharing a domain do
    not clobber each other — and inherited explicitly: code that spawns
    worker domains captures {!context} in the parent and calls
    {!set_context} in the child (the search generator does this), so a
    request's events keep its id across the fan-out. Lock-free reads;
    an explicit event field with the same key wins over the context. *)

val set_context : (string * Jsonw.t) list -> unit
(** Replace the calling thread's context fields ([[]] clears). *)

val context : unit -> (string * Jsonw.t) list

val with_context : (string * Jsonw.t) list -> (unit -> 'a) -> 'a
(** Run with the given context fields installed, restoring the previous
    context on exit (exceptions included). *)

val close : t -> unit
(** Close the channel; later {!emit}s are dropped silently. Idempotent. *)

(** {1 The global journal}

    Mirrors {!Profile}'s ambient profiler: instrumented code paths call
    {!event} / {!active} unconditionally and pay one atomic load when
    journaling is disabled. *)

val enable : string -> t
(** Install (and return) a fresh global journal writing to the given
    path. Any previously installed journal is closed. *)

val disable : unit -> unit
(** Close and uninstall the global journal (no-op if none). *)

val active : unit -> t option

val event : ?cand:int -> string -> (string * Jsonw.t) list -> unit
(** [event typ fields] appends to the global journal, if installed.
    Prefer {!active} + {!emit} in hot loops so field lists are only
    constructed when a journal is live. *)

(** {1 Reader} *)

val fold_file :
  string -> init:'a -> f:('a -> Jsonw.t -> 'a) -> ('a, string) result
(** Fold over a journal file line by line (blank lines skipped). Stops
    with [Error] describing the line number on the first unparsable
    line. *)

val read_file : string -> (Jsonw.t list, string) result
(** All events of a journal file, in file order. *)

val seq_of : Jsonw.t -> int
val cand_of : Jsonw.t -> int
val typ_of : Jsonw.t -> string
val rid_of : Jsonw.t -> string
(** Accessors for the fixed fields ([-1] / [""] when absent), so readers
    like [mirage_cli explain] and the slow-request forensics do not
    re-implement the schema. *)
