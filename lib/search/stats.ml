module M = Obs.Metrics

type snapshot = {
  expanded : int;
  shape_rejected : int;
  memory_rejected : int;
  pruned_abstract : int;
  canonical_rejected : int;
  candidates : int;
  verified : int;
  duplicates : int;
  elapsed_s : float;
}

type t = {
  reg : M.t;
  start : float;
  c_kernel : M.counter;
  c_block : M.counter;
  c_resumed : M.counter;
  c_candidates : M.counter;
  c_verified : M.counter;
}

let create () =
  let reg = M.create () in
  let level name =
    M.counter reg ~help:"attempted extensions"
      (Printf.sprintf "search.%s.expanded" name)
  in
  {
    reg;
    start = Unix.gettimeofday ();
    c_kernel = level "kernel";
    c_block = level "block";
    c_resumed =
      M.counter reg ~help:"incumbents resumed from a checkpoint"
        "search.resumed";
    c_candidates =
      M.counter reg ~help:"complete muGraphs submitted to verification"
        "search.candidates";
    c_verified = M.counter reg ~help:"verified muGraphs" "search.verified";
  }

let registry t = t.reg
let add_candidates t n = if n > 0 then M.add t.c_candidates n
let add_verified t = M.bump t.c_verified

let add_resumed t =
  M.bump t.c_resumed;
  M.bump t.c_candidates

let expanded t = M.value t.c_kernel + M.value t.c_block + M.value t.c_resumed

let of_counters ?(elapsed_s = 0.0) counters =
  let get name = Option.value ~default:0 (List.assoc_opt name counters) in
  let levels suffix =
    get ("search.kernel." ^ suffix) + get ("search.block." ^ suffix)
  in
  {
    expanded = levels "expanded" + get "search.resumed";
    shape_rejected = levels "reject.shape";
    memory_rejected = levels "reject.memory";
    pruned_abstract = levels "reject.pruned";
    canonical_rejected = levels "reject.canonical";
    candidates = get "search.candidates";
    verified = get "search.verified";
    duplicates = levels "reject.duplicate";
    elapsed_s;
  }

(* A flush adds expansions before rejections and candidates, so the
   expansions are read last: a live snapshot never holds a cut whose
   try it has not counted. *)
let snapshot t =
  let s = of_counters (M.snapshot t.reg).M.counters in
  {
    s with
    expanded = expanded t;
    elapsed_s = Unix.gettimeofday () -. t.start;
  }

let to_string s =
  Printf.sprintf
    "expanded=%d shape-=%d mem-=%d pruned=%d canon-=%d candidates=%d \
     verified=%d dup=%d in %.2fs"
    s.expanded s.shape_rejected s.memory_rejected s.pruned_abstract
    s.canonical_rejected s.candidates s.verified s.duplicates s.elapsed_s

let funnel_ok s =
  s.expanded
  >= s.shape_rejected + s.memory_rejected + s.pruned_abstract
     + s.canonical_rejected + s.candidates
