(* Cross-cutting property tests on randomly generated tensor programs:
   the reference interpreter, the finite-field verifier, the symbolic
   verifier, thread fusion, abstract expressions, and the cost model must
   all agree with each other on arbitrary well-formed graphs. *)

open Mugraph
module RT = Verify.Random_test

let qtest ?(count = 60) name gen prop =
  Qseed.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:Graph_gen.print_spec gen prop)

let qtest_g ?(count = 60) name gen prop =
  Qseed.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:Pretty.kernel_graph_to_string gen
       prop)

(* 1. Every generated LAX graph passes the LAX check. *)
let prop_generated_graphs_are_lax =
  qtest_g "generated graphs are LAX"
    (Graph_gen.gen_graph ~lax_only:true ())
    (fun g -> Verify.Lax.is_lax g)

(* 2. The finite-field verifier never rejects a graph against itself
      (no false negatives, Theorem 3's deterministic half). *)
let prop_self_equivalence_probabilistic =
  qtest_g "probabilistic verifier: g ~ g"
    (Graph_gen.gen_graph ~lax_only:true ())
    (fun g ->
      match RT.equivalent ~trials:2 ~spec:g g with
      | RT.Equivalent -> true
      | RT.Rejected m ->
          (* only unlucky all-zero-divisor streaks are tolerated *)
          Astring_contains.contains m "resamples"
      | RT.Not_equivalent _ -> false)

(* 3. The symbolic verifier agrees: g ~ g, exactly. *)
let prop_self_equivalence_symbolic =
  qtest_g ~count:40 "symbolic verifier: g ~ g"
    (Graph_gen.gen_graph ~lax_only:false ())
    (fun g ->
      match Verify.Symbolic.equivalent ~spec:g g with
      | Verify.Symbolic.Equivalent | Verify.Symbolic.Too_large _ -> true
      | Verify.Symbolic.Not_equivalent _ -> false)

(* 4. Interpreting over floats is deterministic and shape-correct. *)
let prop_interpreter_shapes =
  qtest "interpreter respects inferred shapes"
    (Graph_gen.gen_with_inputs ())
    (fun s ->
      let outs =
        Interp.eval_kernel Tensor.Element.float_ops s.Graph_gen.graph
          ~inputs:s.Graph_gen.float_inputs
      in
      let expected = Infer.output_shapes s.Graph_gen.graph in
      List.for_all2
        (fun t sh -> Tensor.Shape.equal (Tensor.Dense.shape t) sh)
        outs expected)

(* 5. Thread fusion preserves the computed function (floats). *)
let graphdef_gen =
  (* wrap a generated elementwise-ish block into a graphdef via the
     simplest schedule: one block, no loop *)
  QCheck2.Gen.map
    (fun (b, d, grid) -> Baselines.Templates.ntrans_fused ~b ~d ~grid)
    QCheck2.Gen.(
      let* b = oneofl [ 4; 8 ] in
      let* d = oneofl [ 16; 32 ] in
      let* grid = oneofl [ 2; 4 ] in
      return (b, d, grid))

let prop_thread_fusion_preserves_function =
  qtest_g ~count:20 "thread fusion preserves semantics" graphdef_gen
    (fun g ->
      let fused = Search.Thread_fuse.fuse_kernel g in
      let st = Random.State.make [| 77 |] in
      let inputs =
        List.map
          (fun shape ->
            Tensor.Dense.init shape (fun _ ->
                0.25 +. Random.State.float st 1.0))
          (Graph.input_shapes g)
      in
      let a = Interp.eval_kernel Tensor.Element.float_ops g ~inputs in
      let b = Interp.eval_kernel Tensor.Element.float_ops fused ~inputs in
      List.for_all2
        (Tensor.Dense.equal (fun x y ->
             Tensor.Element.float_approx_equal ~rtol:1e-6 x y))
        a b)

(* 6. The abstract expression of a graph is invariant under thread
      fusion (fusion is a schedule transformation). *)
let prop_fusion_preserves_abstract_expr =
  qtest_g ~count:20 "fusion preserves abstract expressions" graphdef_gen
    (fun g ->
      let fused = Search.Thread_fuse.fuse_kernel g in
      List.for_all2 Absexpr.Nf.equivalent
        (Abstract.output_exprs g)
        (Abstract.output_exprs fused))

(* 7. Cost model totals are positive, finite, and monotone in devices'
      favor (H100 never slower in the model). *)
let prop_cost_model_sane =
  qtest_g "cost model sane on random graphs"
    (Graph_gen.gen_graph ~lax_only:false ())
    (fun g ->
      let ca = Gpusim.Cost.cost Gpusim.Device.a100 g in
      let ch = Gpusim.Cost.cost Gpusim.Device.h100 g in
      Float.is_finite ca.Gpusim.Cost.total_us
      && ca.Gpusim.Cost.total_us >= 0.0
      && ch.Gpusim.Cost.total_us <= ca.Gpusim.Cost.total_us +. 1e-9)

(* 8. Partitioning random graphs: LAX pieces contain no ReLU; the number
      of pieces is at least 1; pieces validate. *)
let prop_partition_sound =
  qtest_g ~count:60 "partition: pieces valid, relu isolated"
    (Graph_gen.gen_graph ~lax_only:false ())
    (fun g ->
      let p = Mirage.Partition.partition g in
      List.for_all
        (fun (piece : Mirage.Partition.piece) ->
          (match Graph.validate piece.Mirage.Partition.graph with
          | () -> true
          | exception Graph.Ill_formed _ -> false)
          &&
          if piece.Mirage.Partition.lax then
            Verify.Lax.is_lax piece.Mirage.Partition.graph
            || Verify.Lax.max_exp_depth piece.Mirage.Partition.graph > 1
          else true)
        p.Mirage.Partition.pieces)

(* 9. Abstract expressions: a graph's output expression is a subexpression
      of itself and every input variable is a subexpression of it. *)
let prop_output_expr_contains_inputs =
  qtest_g "inputs are subexpressions of outputs"
    (Graph_gen.gen_graph ~lax_only:true ())
    (fun g ->
      let goal = Absexpr.Nf.of_expr (List.hd (Abstract.output_exprs g)) in
      (* find which inputs the output actually depends on *)
      let rec vars (e : Absexpr.Expr.t) acc =
        match e with
        | Absexpr.Expr.Var v -> v :: acc
        | Absexpr.Expr.Add (a, b)
        | Absexpr.Expr.Mul (a, b)
        | Absexpr.Expr.Div (a, b) ->
            vars a (vars b acc)
        | Absexpr.Expr.Exp a
        | Absexpr.Expr.Sqrt a
        | Absexpr.Expr.Silu a
        | Absexpr.Expr.Sum (_, a) ->
            vars a acc
      in
      let used = vars (List.hd (Abstract.output_exprs g)) [] in
      List.for_all
        (fun v ->
          Absexpr.Nf.is_subexpr (Absexpr.Nf.nf_var v) goal)
        used)

(* 10. Incremental NF construction agrees with wholesale normalization
       on every tensor of random graphs (via Abstract.kernel_exprs paths,
       exercised through output_exprs + prim_nf in the enumerators). *)
let prop_incremental_nf_agrees =
  qtest_g "Nf incremental = Nf.of_expr"
    (Graph_gen.gen_graph ~lax_only:true ())
    (fun g ->
      let shapes = Infer.kernel_shapes g in
      let exprs = Abstract.kernel_exprs g in
      (* recompute each node's nf incrementally from its input NFs *)
      let nfs = Array.make (Array.length g.Graph.knodes) [||] in
      let ok = ref true in
      Array.iteri
        (fun i (node : Graph.kernel_node) ->
          match node.Graph.kop with
          | Graph.K_input { name; _ } ->
              nfs.(i) <- [| Absexpr.Nf.nf_var name |]
          | Graph.K_prim p ->
              let in_nfs =
                List.map
                  (fun ({ node = j; port } : Graph.tensor_ref) ->
                    nfs.(j).(port))
                  node.Graph.kins
              in
              let in_shapes =
                List.map
                  (fun ({ node = j; port } : Graph.tensor_ref) ->
                    shapes.(j).(port))
                  node.Graph.kins
              in
              let inc = Abstract.prim_nf p ~in_shapes in_nfs in
              let whole = Absexpr.Nf.of_expr exprs.(i).(0) in
              if not (Absexpr.Nf.equal inc whole) then ok := false;
              nfs.(i) <- [| inc |]
          | Graph.K_graphdef _ -> ())
        g.Graph.knodes;
      !ok)

(* 11. Work-stealing determinism: the enumeration candidate set and the
       selected winner are independent of the domain count (and hence of
       the steal schedule). A low spawn cutoff lets a hungry worker take
       subtrees even on small graphs, so the multi-domain runs steal. *)
let enum_config spec =
  let base =
    {
      Search.Config.default with
      Search.Config.grid_candidates = [ [| 2 |] ];
      forloop_candidates = [ [| 2 |] ];
      max_block_ops = 3;
      num_workers = 1;
      steal_depth_cutoff = 1;
      time_budget_s = 300.0;
    }
  in
  Search.Config.for_spec ~base spec

let sorted_candidates cfg ~spec =
  let solver = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
  let stats = Search.Stats.create () in
  let limits = Gpusim.Device.limits Gpusim.Device.a100 in
  let budget = Search.Budget.of_config cfg in
  let cands, _, fails =
    Search.Generator.generate cfg ~spec ~solver ~stats ~limits ~budget ()
  in
  if fails > 0 then failwith "enumeration task crashed";
  List.sort Stdlib.compare (List.map snd cands)

let prop_enum_schedule_independent =
  qtest_g ~count:4 "enumeration independent of domain count"
    (Graph_gen.gen_graph ~lax_only:true ())
    (fun spec ->
      let at workers =
        { (enum_config spec) with Search.Config.num_workers = workers }
      in
      let base = sorted_candidates (at 1) ~spec in
      List.for_all
        (fun w ->
          let cs = sorted_candidates (at w) ~spec in
          List.length cs = List.length base
          && List.for_all2 Graph.equal cs base)
        [ 2; 4; 8 ]
      &&
      let winner workers =
        let o =
          Search.Generator.run ~config:(at workers) ~verify_trials:1
            ~device:Gpusim.Device.a100 ~spec ()
        in
        match o.Search.Generator.best with
        | Some r -> Some r.Search.Generator.graph
        | None -> None
      in
      let w1 = winner 1 in
      List.for_all
        (fun w ->
          match (winner w, w1) with
          | Some a, Some b -> Graph.equal a b
          | None, None -> true
          | _ -> false)
        [ 2; 4; 8 ])

let () =
  Alcotest.run "properties"
    [
      ( "cross-component",
        [
          prop_generated_graphs_are_lax;
          prop_self_equivalence_probabilistic;
          prop_self_equivalence_symbolic;
          prop_interpreter_shapes;
          prop_thread_fusion_preserves_function;
          prop_fusion_preserves_abstract_expr;
          prop_cost_model_sane;
          prop_partition_sound;
          prop_output_expr_contains_inputs;
          prop_incremental_nf_agrees;
          prop_enum_schedule_independent;
        ] );
    ]
