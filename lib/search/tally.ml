(* Per-subtree accounting for the enumerators (see tally.mli). Every
   attempted extension used to pay a shared atomic for the funnel
   counter, three more for its depth histogram (one a CAS on a boxed
   float) and 2-3 for the solver's counters, all on cache lines every
   worker writes. Here they are plain increments into arrays the subtree
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

(* Where a reason's batch drains: a funnel counter with its depth
   histogram, or (for the block level's structural cuts and the
   goal-distance cut) a plain registry counter. *)
type sink =
  | Funnel of Stats.kind * Obs.Metrics.histogram
  | Counter of Obs.Metrics.counter

let sink reg ~name ~buckets r =
  let hist suffix help =
    Obs.Metrics.histogram reg ~help ~buckets
      (Printf.sprintf "search.%s.reject_depth.%s" name suffix)
  in
  let counter suffix help =
    Counter
      (Obs.Metrics.counter reg ~help
         (Printf.sprintf "search.%s.reject.%s" name suffix))
  in
  match r with
  | Shape -> Funnel (Stats.Shape, hist "shape" "depth of shape rejections")
  | Memory ->
      Funnel
        (Stats.Memory, hist "memory" "depth of shared-memory rejections")
  | Duplicate ->
      Funnel
        (Stats.Duplicates, hist "duplicate" "depth of duplicate rejections")
  | Canonical ->
      Funnel
        ( Stats.Canonical,
          hist "canonical" "depth of canonical-order rejections" )
  | Pruned ->
      Funnel
        (Stats.Pruned, hist "pruned" "depth of abstract-expression rejections")
  | Phase -> counter "phase" "extensions with an inconsistent loop phase"
  | Dangling ->
      counter "dangling" "accepted prefixes cut by the dangling-value bound"
  | Unreachable ->
      counter "unreachable"
        "accepted prefixes cut by the goal-distance bound"

let batch = 4096

type level = {
  stats : Stats.t;
  stride : int;  (* depths 0 .. stride-1 *)
  h_expand : Obs.Metrics.histogram;
  sinks : sink option array;  (* by reason index *)
}

let level stats ~name ~max_depth reasons =
  let buckets =
    Obs.Metrics.linear_buckets ~lo:0.0 ~step:1.0 ~n:(max 1 max_depth + 1)
  in
  let reg = Stats.registry stats in
  let h_expand =
    Obs.Metrics.histogram reg ~help:"prefix depth of attempted extensions"
      ~buckets
      (Printf.sprintf "search.%s.expand_depth" name)
  in
  let sinks = Array.make n_reasons None in
  List.iter
    (fun r -> sinks.(index r) <- Some (sink reg ~name ~buckets r))
    reasons;
  { stats; stride = max 1 max_depth + 1; h_expand; sinks }

(* One worker's counts for one level of one search. [counts] row 0
   holds expansions by depth, row [1 + index r] the rejections for [r],
   all weighted when counted, so the subtrees of root classes of any
   size share one buffer. *)
type acc = {
  lvl : level;
  front : Smtlite.Solver.front;
  counts : int array;
  mutable pending : int;  (* expansions since the last flush *)
  mutable candidates : int;
}

let acc lvl front =
  {
    lvl;
    front;
    counts = Array.make ((n_reasons + 1) * lvl.stride) 0;
    pending = 0;
    candidates = 0;
  }

(* Drain row [row] into [h] (per depth) and return its total. *)
let drain a row h =
  let stride = a.lvl.stride in
  let base = row * stride in
  let total = ref 0 in
  for d = 0 to stride - 1 do
    let k = a.counts.(base + d) in
    if k > 0 then begin
      (match h with
      | Some h -> Obs.Metrics.observe_n h (float_of_int d) k
      | None -> ());
      total := !total + k;
      a.counts.(base + d) <- 0
    end
  done;
  !total

let flush a =
  let stats = a.lvl.stats in
  (* expansions first, so a live reader never sees a rejection whose
     attempt it has not counted *)
  Stats.add stats Stats.Expanded (drain a 0 (Some a.lvl.h_expand));
  a.pending <- 0;
  Array.iteri
    (fun i s ->
      match s with
      | Some (Funnel (k, h)) -> Stats.add stats k (drain a (i + 1) (Some h))
      | Some (Counter c) -> Obs.Metrics.add c (drain a (i + 1) None)
      | None -> ())
    a.lvl.sinks;
  Stats.add stats Stats.Candidates a.candidates;
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

let expand t ~depth n =
  let a = t.a and k = n * t.weight in
  a.counts.(depth) <- a.counts.(depth) + k;
  a.pending <- a.pending + k;
  if a.pending >= batch then flush a

let reject_n t r ~depth n =
  let a = t.a in
  let i = ((index r + 1) * a.lvl.stride) + depth in
  a.counts.(i) <- a.counts.(i) + (n * t.weight)

let reject t r ~depth = reject_n t r ~depth 1

let candidate t = t.a.candidates <- t.a.candidates + 1
let expanded t = Stats.expanded t.a.lvl.stats + t.a.pending
let front t = t.a.front
let timer t = t.timer
