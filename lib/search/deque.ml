(* Chase–Lev work-stealing deque + pool (see deque.mli). The buffer
   grows instead of wrapping over live entries, so a thief can read a
   slot before its CAS on [top] — if the CAS wins, the slot it read was
   still the one [top] named, because the owner never reuses an index
   that a thief might still claim. OCaml [Atomic] is seq_cst, which is
   (conservatively) all the fencing the published algorithm needs. *)

type 'a buf = { size : int; slots : 'a option array }

let mk_buf size = { size; slots = Array.make size None }
let buf_get b i = b.slots.(i land (b.size - 1))
let buf_set b i v = b.slots.(i land (b.size - 1)) <- v

type 'a deque = {
  top : int Atomic.t; (* next index thieves take from *)
  bottom : int Atomic.t; (* next index the owner pushes at *)
  buf : 'a buf Atomic.t;
      (* atomic so a thief that observed a post-grow [bottom] also
         observes the post-grow buffer — a stale smaller buffer would
         alias high indices onto old slots and hand the thief the wrong
         item *)
}

let deque () =
  { top = Atomic.make 0; bottom = Atomic.make 0; buf = Atomic.make (mk_buf 64) }

let depth q =
  let n = Atomic.get q.bottom - Atomic.get q.top in
  if n < 0 then 0 else n

let grow q b t =
  let old = Atomic.get q.buf in
  let nw = mk_buf (old.size * 2) in
  for i = t to b - 1 do
    buf_set nw i (buf_get old i)
  done;
  Atomic.set q.buf nw

let push q v =
  let b = Atomic.get q.bottom in
  let t = Atomic.get q.top in
  if b - t >= (Atomic.get q.buf).size - 1 then grow q b t;
  buf_set (Atomic.get q.buf) b (Some v);
  Atomic.set q.bottom (b + 1)

let pop q =
  let b = Atomic.get q.bottom - 1 in
  Atomic.set q.bottom b;
  let t = Atomic.get q.top in
  if b < t then begin
    (* empty: restore bottom *)
    Atomic.set q.bottom t;
    None
  end
  else begin
    let bf = Atomic.get q.buf in
    let v = buf_get bf b in
    if b > t then begin
      buf_set bf b None;
      v
    end
    else begin
      (* last element: race a thief for it via top *)
      let won = Atomic.compare_and_set q.top t (t + 1) in
      Atomic.set q.bottom (t + 1);
      if won then begin
        buf_set bf b None;
        v
      end
      else None
    end
  end

let steal q =
  let t = Atomic.get q.top in
  let b = Atomic.get q.bottom in
  if b - t <= 0 then None
  else
    (* Read the slot before the CAS: safe because the owner grows the
       buffer instead of wrapping, so a slot is never overwritten while
       [top] still names it; if [top] moved, the CAS fails and the value
       is discarded. The buffer load follows the [bottom] load, so it is
       at least as fresh as the size check. *)
    let v = buf_get (Atomic.get q.buf) t in
    if Atomic.compare_and_set q.top t (t + 1) then v else None

module Pool = struct
  type t = {
    deques : (unit -> unit) deque array;
    pending : int Atomic.t; (* queued + running items *)
    n_steals : int Atomic.t;
    n_spawned : int Atomic.t;
    n_hungry : int Atomic.t;
        (* workers that found nothing to pop or steal and have not run
           an item since *)
    n_parked : int Atomic.t; (* workers waiting on [park_c] *)
    park_m : Mutex.t;
    park_c : Condition.t;
    epoch : int Atomic.t;
        (* bumped under [park_m] by every wake-up; a worker parks only
           while it still reads the epoch it saw before its last look
           for work, so no wake-up between that look and the wait is
           lost *)
    seed_rr : int ref; (* round-robin cursor for [seed]; pre-run only *)
    m_steal_fail : Obs.Metrics.counter;
    m_depth : Obs.Metrics.gauge array; (* per-worker max queue depth *)
  }

  (* Each worker domain stamps its pool and deque id into DLS so [spawn]
     from arbitrarily deep in the enumerators finds its own deque
     without threading the pool through every call. One key for the
     process: a key is never freed, and a domain's first read of a key
     grows its DLS array to the key's index, so a key per pool would
     make each fresh domain pay for every pool ever created. *)
  let worker : (t * int) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let create ?registry ~workers () =
    let reg =
      match registry with Some r -> r | None -> Obs.Metrics.default ()
    in
    let workers = max 1 workers in
    {
      deques = Array.init workers (fun _ -> deque ());
      pending = Atomic.make 0;
      n_steals = Atomic.make 0;
      n_spawned = Atomic.make 0;
      n_hungry = Atomic.make 0;
      n_parked = Atomic.make 0;
      park_m = Mutex.create ();
      park_c = Condition.create ();
      epoch = Atomic.make 0;
      seed_rr = ref 0;
      m_steal_fail =
        Obs.Metrics.counter reg ~help:"empty or raced steal attempts"
          "search.steal.failed";
      m_depth =
        Array.init workers (fun i ->
            Obs.Metrics.gauge reg ~help:"max enumeration queue depth"
              (Printf.sprintf "search.queue.depth.w%d" i));
    }

  let workers t = Array.length t.deques
  let steals t = Atomic.get t.n_steals
  let spawned t = Atomic.get t.n_spawned
  let pending t = Atomic.get t.pending
  let parked t = Atomic.get t.n_parked

  let self t =
    match Domain.DLS.get worker with
    | Some (t', id) when t' == t -> Some id
    | _ -> None

  let seed t f =
    let i = !(t.seed_rr) mod Array.length t.deques in
    incr t.seed_rr;
    Atomic.incr t.pending;
    push t.deques.(i) f

  (* Wake every parked worker: the epoch moves under the lock, so a
     worker between reading the old epoch and waiting either sees the
     new one or is already waiting when the broadcast comes. *)
  let wake t =
    Mutex.lock t.park_m;
    Atomic.incr t.epoch;
    Condition.broadcast t.park_c;
    Mutex.unlock t.park_m

  let spawn t f =
    match Domain.DLS.get worker with
    | Some (t', id) when t' == t && Atomic.get t.n_hungry > 0 ->
        Atomic.incr t.pending;
        Atomic.incr t.n_spawned;
        let q = t.deques.(id) in
        push q f;
        Obs.Metrics.max_gauge t.m_depth.(id) (float_of_int (depth q));
        (* a hungry worker may be parked: the push comes first, so a
           worker that reads the epoch after this wake-up finds the item *)
        wake t;
        true
    | _ -> false

  (* Fixed-increment LCG per worker: deterministic per (pool-run, id),
     cheap, and good enough for victim spreading. *)
  let mk_rng id =
    let s = ref (0x9E3779B9 + (id * 0x85EBCA6B)) in
    fun bound ->
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      !s mod bound

  let run_worker t ~id ~stop ~run =
    let outer = Domain.DLS.get worker in
    Domain.DLS.set worker (Some (t, id));
    let n = Array.length t.deques in
    let rng = mk_rng id in
    let own = t.deques.(id) in
    let exec f =
      Fun.protect ~finally:(fun () -> Atomic.decr t.pending) (fun () -> run f)
    in
    let try_steal () =
      (* One sweep over the other deques starting at a random victim;
         None after a full fruitless pass. *)
      if n = 1 then None
      else begin
        let start = rng (n - 1) in
        let found = ref None in
        let k = ref 0 in
        while !found = None && !k < n - 1 do
          let v = (start + !k) mod (n - 1) in
          let v = if v >= id then v + 1 else v in
          (match steal t.deques.(v) with
          | Some f ->
              Atomic.incr t.n_steals;
              found := Some f
          | None -> Obs.Metrics.bump t.m_steal_fail);
          incr k
        done;
        !found
      end
    in
    (* [hungry] is true from this worker's first fruitless sweep until
       it runs an item again *)
    let fed hungry = if hungry then Atomic.decr t.n_hungry in
    let take () =
      match pop own with Some f -> Some f | None -> try_steal ()
    in
    let rec loop hungry =
      if stop () then fed hungry
      else
        match pop own with
        | Some f -> next hungry f
        | None when Atomic.get t.pending = 0 -> fed hungry
        | None -> (
            match try_steal () with
            | Some f -> next hungry f
            | None ->
                (* Nothing to take but items still running: their spawns
                   or the drain will wake us. Turn hungry (so running
                   items offer subtrees), note the epoch, look once
                   more, and park only if the epoch has not moved
                   since. *)
                if not hungry then Atomic.incr t.n_hungry;
                let e = Atomic.get t.epoch in
                if stop () || Atomic.get t.pending = 0 then loop true
                else
                  match take () with
                  | Some f -> next true f
                  | None ->
                      Mutex.lock t.park_m;
                      if Atomic.get t.epoch = e then begin
                        Atomic.incr t.n_parked;
                        while Atomic.get t.epoch = e do
                          Condition.wait t.park_c t.park_m
                        done;
                        Atomic.decr t.n_parked
                      end;
                      Mutex.unlock t.park_m;
                      loop true)
    and next hungry f =
      fed hungry;
      exec f;
      loop false
    in
    (* A worker leaves when the pool has drained (the one that ran the
       last item leaves at once) or on [stop] (which may leave items
       queued, so the pool never drains); either way it wakes the
       parked workers, which then see the drain or [stop] too. *)
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set worker outer;
        wake t)
      (fun () -> loop false)
end
