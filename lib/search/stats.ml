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
  c_expanded : M.counter;
  c_shape : M.counter;
  c_memory : M.counter;
  c_pruned : M.counter;
  c_canonical : M.counter;
  c_candidates : M.counter;
  c_verified : M.counter;
  c_duplicates : M.counter;
}

let create ?registry () =
  let reg = match registry with Some r -> r | None -> M.create () in
  {
    reg;
    start = Unix.gettimeofday ();
    c_expanded =
      M.counter reg ~help:"extensions attempted by the enumerators"
        "search.expanded";
    c_shape =
      M.counter reg ~help:"rejected: shape inference failed"
        "search.reject.shape";
    c_memory =
      M.counter reg ~help:"rejected: exceeded shared memory"
        "search.reject.memory";
    c_pruned =
      M.counter reg ~help:"rejected: abstract subexpression check"
        "search.reject.pruned_abstract";
    c_canonical =
      M.counter reg ~help:"rejected: canonical rank order"
        "search.reject.canonical";
    c_candidates =
      M.counter reg ~help:"complete muGraphs submitted to verification"
        "search.candidates";
    c_verified = M.counter reg ~help:"verified muGraphs" "search.verified";
    c_duplicates =
      M.counter reg ~help:"duplicate values or muGraphs" "search.duplicates";
  }

let registry t = t.reg

type kind =
  | Expanded
  | Shape
  | Memory
  | Pruned
  | Canonical
  | Candidates
  | Verified
  | Duplicates

let counter t = function
  | Expanded -> t.c_expanded
  | Shape -> t.c_shape
  | Memory -> t.c_memory
  | Pruned -> t.c_pruned
  | Canonical -> t.c_canonical
  | Candidates -> t.c_candidates
  | Verified -> t.c_verified
  | Duplicates -> t.c_duplicates

let add t k n = if n > 0 then M.add (counter t k) n
let expanded t = M.value t.c_expanded

let snapshot t =
  {
    expanded = M.value t.c_expanded;
    shape_rejected = M.value t.c_shape;
    memory_rejected = M.value t.c_memory;
    pruned_abstract = M.value t.c_pruned;
    canonical_rejected = M.value t.c_canonical;
    candidates = M.value t.c_candidates;
    verified = M.value t.c_verified;
    duplicates = M.value t.c_duplicates;
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
