(* Per-subtree accounting for the enumerators (see tally.mli). Counting
   an attempted extension straight into the shared funnel, level and
   solver counters would pay several atomics on cache lines every worker
   writes. Here they are plain increments into one array the worker
   owns, drained in one pass per batch. *)

type reason =
  | Shape
  | Memory
  | Duplicate
  | Canonical
  | Pruned
  | Phase
  | Dangling
  | Unreachable

let by_index =
  [| Shape; Memory; Duplicate; Canonical; Pruned; Phase; Dangling; Unreachable |]

let index = function
  | Shape -> 0
  | Memory -> 1
  | Duplicate -> 2
  | Canonical -> 3
  | Pruned -> 4
  | Phase -> 5
  | Dangling -> 6
  | Unreachable -> 7

let n_reasons = 8

let of_index i =
  if i < 0 || i >= n_reasons then invalid_arg "Tally.of_index"
  else by_index.(i)

(* A reason's [search.<name>.reject.<r>] counter. *)
let sink reg ~name r =
  let suffix, help =
    match r with
    | Shape -> ("shape", "extensions whose shapes do not infer")
    | Memory -> ("memory", "extensions over the shared-memory limit")
    | Duplicate -> ("duplicate", "extensions recomputing an existing value")
    | Canonical -> ("canonical", "extensions out of canonical rank order")
    | Pruned -> ("pruned", "extensions cut by the abstract-expression check")
    | Phase -> ("phase", "extensions with an inconsistent loop phase")
    | Dangling ->
        ("dangling", "accepted prefixes cut by the dangling-value bound")
    | Unreachable ->
        ("unreachable", "accepted prefixes cut by the goal-distance bound")
  in
  Obs.Metrics.counter reg ~help
    (Printf.sprintf "search.%s.reject.%s" name suffix)

let batch = 4096

type level = {
  stats : Stats.t;
  expanded : Obs.Metrics.counter;
  sinks : Obs.Metrics.counter option array;  (* by reason index *)
}

(* [Stats.create] registered the level's expanded counter, so this
   finds the handle {!Stats.expanded} sums. *)
let level stats ~name reasons =
  let reg = Stats.registry stats in
  let expanded =
    Obs.Metrics.counter reg (Printf.sprintf "search.%s.expanded" name)
  in
  let sinks = Array.make n_reasons None in
  List.iter (fun r -> sinks.(index r) <- Some (sink reg ~name r)) reasons;
  { stats; expanded; sinks }

(* One worker's counts for one level of one search: slot 0 holds the
   expansions since the last flush, slot [1 + index r] the rejections
   for [r], all weighted when counted, so the subtrees of root classes
   of any size share one buffer. *)
type acc = {
  lvl : level;
  front : Smtlite.Solver.front;
  counts : int array;
  mutable candidates : int;
}

let acc lvl front =
  { lvl; front; counts = Array.make (n_reasons + 1) 0; candidates = 0 }

(* Empty slot [i] and return what it held. *)
let take a i =
  let k = a.counts.(i) in
  a.counts.(i) <- 0;
  k

let flush a =
  (* expansions first, so a live reader never sees a rejection whose
     attempt it has not counted *)
  Obs.Metrics.add a.lvl.expanded (take a 0);
  Array.iteri
    (fun i s -> Option.iter (fun c -> Obs.Metrics.add c (take a (i + 1))) s)
    a.lvl.sinks;
  Stats.add_candidates a.lvl.stats a.candidates;
  a.candidates <- 0;
  Smtlite.Solver.flush_front a.front

(* One subtree's view: the worker's buffer, the subtree's weight, and
   its batched prune-check timer, flushed under the subtree's phase. *)
type t = { a : acc; weight : int; timer : Obs.Profile.timer }

let run a ~weight f =
  let timer = Obs.Profile.timer "prune.abstract" in
  Fun.protect
    ~finally:(fun () -> Obs.Profile.flush_timer timer)
    (fun () -> f { a; weight; timer })

let expand t n =
  let a = t.a in
  a.counts.(0) <- a.counts.(0) + (n * t.weight);
  if a.counts.(0) >= batch then flush a

let reject_n t r n =
  let a = t.a and i = index r + 1 in
  a.counts.(i) <- a.counts.(i) + (n * t.weight)

let reject t r = reject_n t r 1

let candidate t = t.a.candidates <- t.a.candidates + 1
let expanded t = Stats.expanded t.a.lvl.stats + t.a.counts.(0)
let front t = t.a.front
let timer t = t.timer
