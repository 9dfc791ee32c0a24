(** The search flight recorder: a domain-safe, append-only JSONL event
    journal. Where {!Metrics} answers "how many tries were pruned?", the
    journal answers "what became of candidate #17?" — every emitted
    muGraph, verifier verdict and cost attribution is one self-describing
    line. It records candidates, not tries: an enumerator's tries and
    their reject reasons are counted (the search funnel, the
    [search.<level>.reject*] metrics and the profiler's prune rules),
    never journaled, so a journaled search runs at a plain search's
    speed and returns its answer.

    Writing is designed for the multi-domain search hot path: each domain
    serializes events into its own bounded buffer (its own uncontended
    mutex), and buffers drain through a single writer mutex to the
    underlying channel — so lines are never torn or interleaved, and the
    shared lock is only taken once per [capacity] events per domain.
    Every event carries a process-unique, monotonically increasing [seq]
    so a reader can reconstruct global order even though domains flush
    independently.

    Journaling is off by default: {!event} costs one atomic load when no
    journal is installed. [mirage_cli optimize --report DIR] enables it.

    Line schema (one JSON object per line):
    {v
    {"seq":412,"ts":0.0137,"dom":3,"ev":"verify.verdict",
     "cand":17,"verdict":"equivalent", ...event fields...}
    v}

    The event types: [graph.emit] (a new candidate muGraph, with a fresh
    ["cand"] id), [graph.duplicate] (a candidate equal to an earlier
    one), [cand.crash] (a crashed enumeration task or verification),
    [verify.verdict], [cost.kernel] and [cost.total] (a candidate's
    verdict and cost, under its ["cand"]), and the serving tier's
    [search.*], [request.*], [cache.*], [conn.*], [admit.*] and
    [shutdown.*] events. *)

type t

val create : ?capacity:int -> path:string -> unit -> t
(** Open a journal writing to [path] (truncates). [capacity] is the
    per-domain buffer size in events before a drain to the shared writer
    (default 128). *)

val path : t -> string

val emit : t -> ?cand:int -> typ:string -> (string * Jsonw.t) list -> unit
(** Append one event. [cand] tags the event with a candidate id (from
    {!fresh_id}) so a candidate's lifecycle can be reassembled; negative
    ids are omitted from the line. Safe from any domain. *)

val fresh_id : t -> int
(** A process-unique candidate id (atomic counter, starts at 0). *)

val dropped : t -> int
(** Events lost to failed writes (disk full, injected [journal.write]
    fault). A failed drain drops whole per-domain buffers — before any
    byte reaches the channel — degrades the run ([Budget.degrade
    "journal.write"]), bumps the [journal.dropped_events] /
    [journal.dropped_buffers] counters in the default metrics registry,
    and keeps the search alive; the file never contains a torn line. *)

val dropped_buffers : t -> int
(** Whole per-domain buffers lost to failed writes. *)

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

val flush : t -> unit
(** Drain every registered per-domain buffer and flush the channel.
    Takes each buffer's lock, so it is safe while workers are running. *)

val close : t -> unit
(** {!flush}, then close the channel. Idempotent. *)

(** {1 The global journal}

    Mirrors {!Profile}'s ambient profiler: instrumented code paths call
    {!event} / {!active} unconditionally and pay one atomic load when
    journaling is disabled. *)

val enable : ?capacity:int -> string -> t
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
