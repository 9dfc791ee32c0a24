(** Work-stealing scheduler for the enumerators: one Chase–Lev deque
    per worker domain, randomized stealing, and counter-based
    termination detection (the X10/cilk pool idiom).

    The deque is the classic Chase–Lev array deque: the owner pushes
    and pops at the bottom without contention; thieves CAS the top. The
    owner grows the circular buffer instead of wrapping over
    unconsumed entries, so a thief's pre-CAS read can never observe a
    torn slot.

    {!Pool} layers scheduling on top: [seed] enqueues the initial task
    bodies (before the worker domains start), running items call
    {!Pool.spawn} to publish subtree continuations onto their own
    deque — taken only while some worker is hungry (found nothing to
    pop or steal) — and idle workers steal from random victims until
    the global in-flight count drains to zero. A worker that finds
    nothing while items still run parks on the pool's condition
    variable instead of spinning or sleeping; a spawn wakes it, and so
    does a worker leaving the pool (the one that ran the last item, on
    the drain to zero, or one that saw [stop]), so a new subtree is
    taken at once and the final join waits for no sleeper. Workers may
    join late (on-demand lanes start helpers mid-run): a seeded item
    waits in its deque until its owner or a thief takes it. Failed steal attempts and per-worker
    queue depth land in the metrics registry ([search.steal.failed],
    [search.queue.depth.w<i>]); spawns and steals are counted by the
    pool and read with {!Pool.spawned} and {!Pool.steals}. *)

type 'a deque

val deque : unit -> 'a deque
val push : 'a deque -> 'a -> unit
(** Owner only. *)

val pop : 'a deque -> 'a option
(** Owner only; takes the newest item (LIFO — depth-first locality). *)

val steal : 'a deque -> 'a option
(** Any domain; takes the oldest item (FIFO — steals big subtrees).
    [None] means empty or lost a race; callers just pick another
    victim. *)

val depth : 'a deque -> int
(** Racy snapshot of the queued-item count (for gauges). *)

module Pool : sig
  type t

  val create : ?registry:Obs.Metrics.t -> workers:int -> unit -> t
  (** A pool of [workers >= 1] deques. Metrics register in [registry]
      (default: the process-wide registry). *)

  val workers : t -> int

  val seed : t -> (unit -> unit) -> unit
  (** Enqueue an initial item, round-robin across workers. Only valid
      before {!run_worker} is entered (the spawning domain owns every
      deque until the worker domains exist). *)

  val spawn : t -> (unit -> unit) -> bool
  (** From inside a running item: publish a continuation onto the
      calling worker's own deque, where it is popped LIFO by the owner
      or stolen FIFO by an idle worker — but only while some worker is
      {e hungry}: it found nothing to pop or steal and has not run an
      item since (an atomic count; a worker turns hungry on its first
      fruitless sweep and is fed by the next item it pops or steals).
      Returns [false] when no worker is hungry or the caller is not a
      worker of this pool: the caller must then run the continuation
      inline. So a one-worker pool never takes a continuation (its only
      worker is busy running the caller), and a busy pool is not fed
      subtrees nobody is waiting for. *)

  val run_worker : t -> id:int -> stop:(unit -> bool) -> run:((unit -> unit) -> unit) -> unit
  (** The worker loop for deque [id]: pop own work, else steal from
      random victims, until [stop ()] is true or every item in the
      pool has finished. With nothing to take while items still run,
      the worker turns hungry and parks until the epoch of the pool's
      wake-ups moves (it reads the epoch before its last look for work,
      so no wake-up is lost). [stop] must turn true only inside an item
      (as a flag the item sets), so a worker sees it at its next item
      boundary and wakes the parked ones on its way out. [run] executes
      one item and must not raise (quarantine exceptions inside it);
      the in-flight count is decremented even if it does. *)

  val self : t -> int option
  (** The calling worker's deque index, [None] outside {!run_worker}. *)

  val steals : t -> int
  (** Successful steals so far (cheap atomic read — feeds the live
      progress stream). *)

  val spawned : t -> int
  (** Subtree continuations published via {!spawn} (the seeded items
      are not counted). *)

  val pending : t -> int
  (** Items queued or running right now (0 after a full drain). *)

  val parked : t -> int
  (** Workers parked right now, waiting for a spawn or the drain (racy
      snapshot). *)
end
