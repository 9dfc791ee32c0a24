module Nf = Absexpr.Nf

type stats = {
  queries : int;
  cache_hits : int;
  cache_misses : int;
  accepted : int;
  solve_time_s : float;
}

type t = {
  goals : Nf.t list;
  index : Nf.goal option Atomic.t;
      (** the goals' closure, every query's decision; built by the first
          decision, under [lock] *)
  cache : bool Nf.Tbl.t;  (** shared across domains, locked *)
  lock : Mutex.t;
  queries : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  accepted : int Atomic.t;
  solve_ns : int Atomic.t;  (** cumulative decision-procedure time *)
  mutable fronts : front option array;
      (** by worker index, each made on its first request; guarded by
          [lock] *)
}

(* A worker's lock-free fast path: a private memo in front of the shared
   cache, and plain counters that {!flush_front} adds to the solver's
   totals. Owned by the solver, so both die with it. *)
and front = {
  owner : t;
  memo : bool Nf.Tbl.t;
  mutable f_queries : int;
  mutable f_hits : int;
  mutable f_accepted : int;
}

let create ~target =
  let goals = List.map Nf.of_expr target in
  {
    goals;
    index = Atomic.make None;
    cache = Nf.Tbl.create 16;
    lock = Mutex.create ();
    queries = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    accepted = Atomic.make 0;
    solve_ns = Atomic.make 0;
    fronts = [||];
  }

(* A search that asks no prune query (its levels skipped by the
   goal-distance cut) never builds the goal index. Built under [lock],
   not with [Lazy.force], which raises [Lazy.Undefined] when two domains
   force it at once. *)
let index t =
  match Atomic.get t.index with
  | Some g -> g
  | None ->
      Mutex.protect t.lock (fun () ->
          match Atomic.get t.index with
          | Some g -> g
          | None ->
              let g = Nf.goal t.goals in
              Atomic.set t.index (Some g);
              g)

(* Past the front: the shared memo, then the decision procedure. Hits
   here count straight into the solver's totals; they are rare next to
   front hits. *)
let resolve t nf =
  let shared =
    Mutex.lock t.lock;
    let r = Nf.Tbl.find_opt t.cache nf in
    Mutex.unlock t.lock;
    r
  in
  match shared with
  | Some r ->
      Atomic.incr t.cache_hits;
      r
  | None ->
      Atomic.incr t.cache_misses;
      let index = index t in
      let t0 = Unix.gettimeofday () in
      let r = Nf.decide index nf in
      let dt_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
      ignore (Atomic.fetch_and_add t.solve_ns dt_ns);
      (* overlay: decision-procedure time only (cache misses), so
         the profile can split "prune check" into lookup vs solve *)
      Obs.Profile.note "smtlite.decide" (float_of_int dt_ns *. 1e-9);
      Mutex.lock t.lock;
      Nf.Tbl.replace t.cache nf r;
      Mutex.unlock t.lock;
      r

let front t worker =
  Mutex.protect t.lock (fun () ->
      let n = Array.length t.fronts in
      if worker >= n then begin
        let grown = Array.make (worker + 1) None in
        Array.blit t.fronts 0 grown 0 n;
        t.fronts <- grown
      end;
      match t.fronts.(worker) with
      | Some f -> f
      | None ->
          let f =
            {
              owner = t;
              memo = Nf.Tbl.create 16;
              f_queries = 0;
              f_hits = 0;
              f_accepted = 0;
            }
          in
          t.fronts.(worker) <- Some f;
          f)

let check_front f nf =
  f.f_queries <- f.f_queries + 1;
  let r =
    match Nf.Tbl.find_opt f.memo nf with
    | Some r ->
        f.f_hits <- f.f_hits + 1;
        r
    | None ->
        let r = resolve f.owner nf in
        Nf.Tbl.replace f.memo nf r;
        r
  in
  if r then f.f_accepted <- f.f_accepted + 1;
  r

let flush_front f =
  let t = f.owner in
  if f.f_queries > 0 then begin
    ignore (Atomic.fetch_and_add t.queries f.f_queries);
    ignore (Atomic.fetch_and_add t.cache_hits f.f_hits);
    ignore (Atomic.fetch_and_add t.accepted f.f_accepted);
    f.f_queries <- 0;
    f.f_hits <- 0;
    f.f_accepted <- 0
  end

let stats t =
  {
    queries = Atomic.get t.queries;
    cache_hits = Atomic.get t.cache_hits;
    cache_misses = Atomic.get t.cache_misses;
    accepted = Atomic.get t.accepted;
    solve_time_s = float_of_int (Atomic.get t.solve_ns) /. 1e9;
  }

let reset_stats t =
  Atomic.set t.queries 0;
  Atomic.set t.cache_hits 0;
  Atomic.set t.cache_misses 0;
  Atomic.set t.accepted 0;
  Atomic.set t.solve_ns 0
