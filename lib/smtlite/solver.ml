module Nf = Absexpr.Nf

type stats = {
  queries : int;
  cache_hits : int;
  cache_misses : int;
  accepted : int;
  solve_time_s : float;
  disk_hits : int;
  disk_entries : int;
}

type persist = {
  p_load : unit -> Obs.Jsonw.t option;
  p_store : (unit -> Obs.Jsonw.t) -> unit;
  p_corrupt : string -> unit;
}

type t = {
  goals : Nf.t list;
  index : Nf.goal;  (** the goals' closure, every query's decision *)
  cache : bool Nf.Tbl.t;  (** shared across domains, locked *)
  lock : Mutex.t;
  queries : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  accepted : int Atomic.t;
  solve_ns : int Atomic.t;  (** cumulative decision-procedure time *)
  (* On-disk tier: string-keyed (Nf.to_string) so a loaded envelope
     never needs a normal-form parser. [persist] and [loaded] are set
     once, before search domains spawn; the table and [disk_new] are
     guarded by [lock]. A new decision lives in [cache] alone until a
     flush's envelope is built, which adds every decision to [disk]. *)
  mutable persist : persist option;
  mutable loaded : bool;  (** the attached envelope had entries *)
  disk : (string, bool) Hashtbl.t;
  mutable disk_new : int;  (** decisions made since the last envelope *)
  disk_hits : int Atomic.t;
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
    index = Nf.goal goals;
    cache = Nf.Tbl.create 16;
    lock = Mutex.create ();
    queries = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    accepted = Atomic.make 0;
    solve_ns = Atomic.make 0;
    persist = None;
    loaded = false;
    disk = Hashtbl.create 16;
    disk_new = 0;
    disk_hits = Atomic.make 0;
    fronts = [||];
  }

let prunecache_schema = "mirage.smtlite.prunecache.v1"

(* The cache file is only meaningful for the goal set it was built
   against: a decided query is [subexpr nf goals], so the key must bind
   the goals. Sorted so goal order doesn't split the cache. *)
let goals_key t =
  t.goals |> List.map Nf.to_string
  |> List.sort String.compare
  |> String.concat "\n"
  |> Digest.string
  |> Digest.to_hex

module J = Obs.Jsonw

let envelope_locked t =
  let entries =
    Hashtbl.fold (fun k v acc -> (k, J.Bool v) :: acc) t.disk []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  J.Obj
    [
      ("schema", J.Str prunecache_schema);
      ("goals_key", J.Str (goals_key t));
      ("entries", J.Obj entries);
    ]

(* One durable store per search, when it finishes: every flush writes
   the whole envelope, so flushing as decisions pile up would write
   O(n^2) bytes. A search killed first loses decisions that take a few
   microseconds each to remake. The envelope is built when the store
   asks for it, which a deferred store does after the search: its
   decisions are keyed and sorted then, not while it runs. *)
let flush_persist t =
  match t.persist with
  | None -> ()
  | Some p ->
      if Mutex.protect t.lock (fun () -> t.disk_new > 0) then
        p.p_store (fun () ->
            Mutex.protect t.lock (fun () ->
                Nf.Tbl.iter
                  (fun nf r -> Hashtbl.replace t.disk (Nf.to_string nf) r)
                  t.cache;
                t.disk_new <- 0;
                envelope_locked t))

let attach_persist t p =
  t.persist <- Some p;
  match p.p_load () with
  | None -> ()
  | Some j -> (
      match (J.member "schema" j, J.member "goals_key" j, J.member "entries" j)
      with
      | Some (J.Str s), _, _ when s <> prunecache_schema ->
          p.p_corrupt (Printf.sprintf "unknown prune-cache schema %S" s)
      | Some (J.Str _), Some (J.Str gk), Some (J.Obj entries) ->
          (* A different goal set is a different search, not corruption:
             leave the entry alone and start fresh in memory. *)
          if gk = goals_key t then begin
            let malformed = ref 0 in
            Mutex.lock t.lock;
            List.iter
              (fun (k, v) ->
                match v with
                | J.Bool b -> Hashtbl.replace t.disk k b
                | _ -> incr malformed)
              entries;
            t.loaded <- Hashtbl.length t.disk > 0;
            Mutex.unlock t.lock;
            if !malformed > 0 then
              p.p_corrupt
                (Printf.sprintf "%d non-boolean prune-cache entries" !malformed)
          end
      | _ -> p.p_corrupt "malformed prune-cache envelope")

(* Past the front: the shared memo, then the disk tier, then the
   decision procedure. Hits here count straight into the solver's
   totals; they are rare next to front hits. *)
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
  | None -> (
      let disk =
        if not t.loaded then None
        else
          let k = Nf.to_string nf in
          Mutex.lock t.lock;
          let r = Hashtbl.find_opt t.disk k in
          Mutex.unlock t.lock;
          r
      in
      match disk with
      | Some r ->
          Atomic.incr t.cache_hits;
          Atomic.incr t.disk_hits;
          Mutex.lock t.lock;
          Nf.Tbl.replace t.cache nf r;
          Mutex.unlock t.lock;
          r
      | None ->
          Atomic.incr t.cache_misses;
          let t0 = Unix.gettimeofday () in
          let r = Nf.decide t.index nf in
          let dt_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
          ignore (Atomic.fetch_and_add t.solve_ns dt_ns);
          (* overlay: decision-procedure time only (cache misses), so
             the profile can split "prune check" into lookup vs solve *)
          Obs.Profile.note "smtlite.decide" (float_of_int dt_ns *. 1e-9);
          Mutex.lock t.lock;
          Nf.Tbl.replace t.cache nf r;
          if t.persist <> None then t.disk_new <- t.disk_new + 1;
          Mutex.unlock t.lock;
          r)

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
    disk_hits = Atomic.get t.disk_hits;
    disk_entries = Mutex.protect t.lock (fun () -> Hashtbl.length t.disk + t.disk_new);
  }

let disk_hit_ratio (s : stats) =
  let past = s.disk_hits + s.cache_misses in
  if past = 0 then 0.0 else float_of_int s.disk_hits /. float_of_int past

let reset_stats t =
  Atomic.set t.queries 0;
  Atomic.set t.cache_hits 0;
  Atomic.set t.cache_misses 0;
  Atomic.set t.accepted 0;
  Atomic.set t.solve_ns 0
