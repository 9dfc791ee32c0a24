(** The two-tier μGraph result store: a small in-memory LRU over an
    on-disk content-addressed directory of schema-versioned
    [result.json] entries.

    Disk entries live at [<dir>/<fp[0:2]>/<fp>/result.json] and wrap the
    caller's payload in an envelope carrying {!entry_schema} and the
    fingerprint. Writes are crash-safe: temp file, fsync, rename, then
    directory fsync — a kill -9 mid-store leaves the old entry, the new
    entry, or an orphaned temp file, never a torn [result.json]. A
    startup recovery sweep quarantines crash residue (orphaned temps
    into [<dir>/quarantine/], truncated or foreign envelopes renamed to
    [result.json.quarantined]); a corrupted entry found later at read
    time — unreadable, unparsable, wrong schema, mismatched fingerprint
    — is quarantined the same way and treated as a miss, never an
    exception: a tampered cache degrades the service to re-searching,
    it cannot crash it.

    The disk tier can carry a byte cap ([max_disk_bytes]): stores that
    push it over the cap evict the least-recently-used entries (disk
    hits refresh mtime). ENOSPC flips the store into memory-only mode
    — flagged through {!Obs.Budget.degrade} ([service.cache.enospc])
    and the [service.cache.mem_only] gauge — instead of failing.

    Result traffic is counted in [service.cache.*] ({!Obs.Metrics}):
    [hit.mem], [hit.disk], [miss], [store], [evict], [evict.disk],
    [quarantine], [recovered]. *)

type t

val entry_schema : string

val create :
  ?mem_capacity:int ->
  ?registry:Obs.Metrics.t ->
  ?max_disk_bytes:int ->
  ?recover:bool ->
  dir:string ->
  unit ->
  t
(** Opens (and creates if needed) the store rooted at [dir].
    [mem_capacity] bounds the in-memory tier (default 64 results);
    [max_disk_bytes] bounds the on-disk tier (default 0 = unlimited);
    [recover] (default true) runs the startup recovery sweep. Metrics
    register in [registry] (default: the process-wide registry).
    Thread-safe. *)

val dir : t -> string

val find : t -> string -> Obs.Jsonw.t option
(** [find t fp] returns the cached payload, promoting disk hits into the
    memory tier (and refreshing their LRU mtime). Corrupted disk entries
    are quarantined and reported as a miss. *)

val find_mem : t -> string -> Obs.Jsonw.t option
(** [find_mem t fp]: {!find} over the memory tier only, so it reads no
    disk. A hit counts as [hit.mem]; a miss counts nothing, since the
    caller's {!find} of the same request has counted it. *)

val store : t -> string -> Obs.Jsonw.t -> unit
(** [store t fp payload] writes both tiers durably. ENOSPC degrades the
    store to memory-only mode; any other disk failure is logged and
    degrades the run ([service.cache.write]); neither raises. Stores run
    one at a time; a {!find} waits for none of a store's disk work but
    the rename. *)

val remember : t -> string -> Obs.Jsonw.t -> unit
(** [remember t fp payload] puts [payload] in the memory tier only, so
    {!find} serves it at once; a later {!store} makes it durable. Not
    counted as a store. *)

val quarantine : t -> string -> reason:string -> unit
(** Forcibly quarantine an entry (both tiers) — used by callers that
    discover a payload is semantically invalid (e.g. its graph fails to
    decode) after {!find} accepted the envelope. *)

val entry_path : t -> string -> string
(** The on-disk path of a fingerprint's [result.json] (exposed for tests
    and forensics). *)

val clear_mem : t -> unit
(** Drop the in-memory tier (simulates a daemon restart over a warm
    disk). *)

val mem_entries : t -> int
val disk_entries : t -> int

val disk_bytes : t -> int
(** Current byte occupancy of the disk tier (tracked incrementally;
    seeded by the recovery sweep). *)

val mem_only : t -> bool
(** True once ENOSPC degraded the store to memory-only mode. *)
