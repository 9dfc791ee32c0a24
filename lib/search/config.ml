open Mugraph

type t = {
  max_kernel_ops : int;
  max_block_ops : int;
  grid_candidates : int array list;
  forloop_candidates : int array list;
  block_op_menu : Op.prim list;
  kernel_op_menu : Op.prim list;
  use_abstract_pruning : bool;
  use_thread_fusion : bool;
  num_workers : int;
  node_budget : int;
  time_budget_s : float;
  max_task_failures : int;
  verify_fast_path : bool;
  steal_depth_cutoff : int;
}

(* Workers default to the machine's recommended domain count, capped so a
   many-core box doesn't oversubscribe a search whose task tree is small.
   Computed once — recommended_domain_count is constant per process. *)
let default_workers =
  let n = try Domain.recommended_domain_count () with _ -> 1 in
  max 1 (min n 8)

let default =
  {
    max_kernel_ops = 5;
    max_block_ops = 11;
    grid_candidates = [ [| 16 |]; [| 64 |]; [| 128 |] ];
    forloop_candidates = [ [||]; [| 4 |]; [| 16 |] ];
    block_op_menu =
      [
        Op.Matmul;
        Op.Binary Op.Add;
        Op.Binary Op.Mul;
        Op.Binary Op.Div;
        Op.Unary Op.Exp;
        Op.Unary Op.Sqr;
        Op.Unary Op.Sqrt;
        Op.Unary Op.Silu;
        Op.Sum { dim = 0; group = 0 };
      ];
    kernel_op_menu =
      [
        Op.Matmul;
        Op.Binary Op.Add;
        Op.Binary Op.Mul;
        Op.Binary Op.Div;
        Op.Unary Op.Exp;
        Op.Unary Op.Sqr;
        Op.Unary Op.Sqrt;
        Op.Unary Op.Silu;
        Op.Sum { dim = 0; group = 0 };
      ];
    use_abstract_pruning = true;
    use_thread_fusion = true;
    num_workers = default_workers;
    node_budget = 0;
    time_budget_s = 0.0;
    max_task_failures = 8;
    verify_fast_path = true;
    steal_depth_cutoff = 3;
  }

(* Structural facts about the goal normal forms that make operator
   classes useful: Add can only survive the subexpression filter if some
   position of the goal is a sum of several terms; Div only if some
   denominator is nontrivial; reductions only if some sum factor
   exceeds 1. *)
let rec nf_has_add (n : Absexpr.Nf.t) =
  List.length n > 1 || List.exists term_has_add n

and term_has_add (t : Absexpr.Nf.term) =
  List.exists atom_has_add t.Absexpr.Nf.num || den_has_add t.Absexpr.Nf.den

and atom_has_add = function
  | Absexpr.Nf.A_var _ -> false
  | Absexpr.Nf.A_exp i | Absexpr.Nf.A_sqrt i | Absexpr.Nf.A_silu i ->
      nf_has_add i

and den_has_add (d : Absexpr.Nf.den) =
  List.exists
    (function
      | Absexpr.Nf.D_atom a -> atom_has_add a
      | Absexpr.Nf.D_opaque n -> nf_has_add n
      | Absexpr.Nf.D_inv dd -> den_has_add dd)
    d.Absexpr.Nf.dfacs

let rec nf_has_div (n : Absexpr.Nf.t) =
  List.exists
    (fun (t : Absexpr.Nf.term) ->
      (not (Absexpr.Nf.den_is_trivial t.Absexpr.Nf.den))
      || List.exists atom_has_div t.Absexpr.Nf.num)
    n

and atom_has_div = function
  | Absexpr.Nf.A_var _ -> false
  | Absexpr.Nf.A_exp i | Absexpr.Nf.A_sqrt i | Absexpr.Nf.A_silu i ->
      nf_has_div i

let rec nf_has_sum (n : Absexpr.Nf.t) =
  List.exists
    (fun (t : Absexpr.Nf.term) ->
      t.Absexpr.Nf.sf > 1 || t.Absexpr.Nf.den.Absexpr.Nf.dsum > 1
      || List.exists atom_has_sum t.Absexpr.Nf.num)
    n

and atom_has_sum = function
  | Absexpr.Nf.A_var _ -> false
  | Absexpr.Nf.A_exp i | Absexpr.Nf.A_sqrt i | Absexpr.Nf.A_silu i ->
      nf_has_sum i

(* Which unary operators the spec's abstract expressions mention. *)
let spec_features g =
  let rec walk (e : Absexpr.Expr.t) acc =
    match e with
    | Absexpr.Expr.Var "__neg" -> "sub" :: acc
    | Absexpr.Expr.Var _ -> acc
    | Absexpr.Expr.Add (a, b)
    | Absexpr.Expr.Mul (a, b)
    | Absexpr.Expr.Div (a, b) ->
        walk a (walk b acc)
    | Absexpr.Expr.Exp a -> walk a ("exp" :: acc)
    | Absexpr.Expr.Sqrt a -> walk a ("sqrt" :: acc)
    | Absexpr.Expr.Silu a -> walk a ("silu" :: acc)
    | Absexpr.Expr.Sum (_, a) -> walk a acc
  in
  let features =
    List.fold_left
      (fun acc e -> walk e acc)
      []
      (Abstract.output_exprs g)
  in
  List.sort_uniq Stdlib.compare features

let divisor_candidates dims =
  (* plausible grid sizes / loop trip counts drawn from the dimensions of
     the problem: powers of two dividing some input dimension *)
  let pows = [ 2; 4; 8; 16; 32; 64; 128 ] in
  List.filter (fun p -> List.exists (fun d -> d mod p = 0 && d > p) dims) pows

let for_spec ?(base = default) (g : Graph.kernel_graph) =
  let features = spec_features g in
  let has f = List.mem f features in
  let goal_nfs =
    List.map Absexpr.Nf.of_expr (Abstract.output_exprs g)
  in
  let goal_has f = List.exists f goal_nfs in
  let menu_filter menu =
    List.filter
      (fun p ->
        match p with
        | Op.Unary Op.Exp -> has "exp"
        | Op.Unary Op.Sqrt -> has "sqrt"
        | Op.Unary Op.Silu -> has "silu"
        | Op.Binary Op.Add -> goal_has nf_has_add
        | Op.Binary Op.Sub -> has "sub"
        | Op.Binary Op.Div -> goal_has nf_has_div
        | Op.Matmul | Op.Sum _ -> goal_has nf_has_sum
        | _ -> true)
      menu
  in
  let dims =
    List.concat_map (fun s -> Array.to_list s) (Graph.input_shapes g)
    |> List.sort_uniq Stdlib.compare
  in
  let grid_candidates =
    if base.grid_candidates <> default.grid_candidates then
      base.grid_candidates
    else
      match divisor_candidates dims with
      | [] -> [ [| 1 |] ]
      | ds -> List.map (fun d -> [| d |]) ds
  in
  let forloop_candidates =
    if base.forloop_candidates <> default.forloop_candidates then
      base.forloop_candidates
    else
      [||]
      :: List.map
           (fun d -> [| d |])
           (List.filter (fun d -> d <= 16) (divisor_candidates dims))
  in
  {
    base with
    block_op_menu = menu_filter base.block_op_menu;
    kernel_op_menu = menu_filter base.kernel_op_menu;
    grid_candidates;
    forloop_candidates;
  }

let to_json (c : t) =
  let open Obs.Jsonw in
  let dims_list l =
    List (List.map (fun a -> List (Array.to_list (Array.map (fun i -> Int i) a))) l)
  in
  let menu m = List (List.map (fun p -> Str (Op.to_string p)) m) in
  Obj
    [
      ("max_kernel_ops", Int c.max_kernel_ops);
      ("max_block_ops", Int c.max_block_ops);
      ("grid_candidates", dims_list c.grid_candidates);
      ("forloop_candidates", dims_list c.forloop_candidates);
      ("block_op_menu", menu c.block_op_menu);
      ("kernel_op_menu", menu c.kernel_op_menu);
      ("use_abstract_pruning", Bool c.use_abstract_pruning);
      ("use_thread_fusion", Bool c.use_thread_fusion);
      ("num_workers", Int c.num_workers);
      ("node_budget", Int c.node_budget);
      ("time_budget_s", Float c.time_budget_s);
      ("max_task_failures", Int c.max_task_failures);
      ("verify_fast_path", Bool c.verify_fast_path);
      ("steal_depth_cutoff", Int c.steal_depth_cutoff);
    ]

(* Fields with no bearing on which muGraph the search returns: worker
   count and budgets only decide how long the search may run, the crash
   tolerance only decides when it aborts, and the fast verify path
   returns the same verdicts as the reference path. Everything else —
   operator menus, depth caps, grid/loop candidates, pruning switches —
   changes the candidate set and so must key a result cache. *)
let result_irrelevant_keys =
  [
    "num_workers";
    "node_budget";
    "time_budget_s";
    "max_task_failures";
    "verify_fast_path";
    "steal_depth_cutoff";
  ]

let search_relevant_json c =
  match to_json c with
  | Obs.Jsonw.Obj fields ->
      Obs.Jsonw.Obj
        (List.filter
           (fun (k, _) -> not (List.mem k result_irrelevant_keys))
           fields)
  | v -> v
