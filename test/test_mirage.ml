(* Tests for the top-level pipeline: LAX partitioning and the
   superoptimize entry point, plus the C code generator. *)

open Mugraph

let prim bld p ins = Graph.Build.prim bld p ins

(* A program with a ReLU in the middle: LAX / non-LAX / LAX pieces. *)
let program_with_relu () =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 4; 8 |] in
  let c = Graph.Build.input bld "C" [| 4; 1 |] in
  let w = Graph.Build.input bld "W" [| 8; 8 |] in
  let y = prim bld (Op.Binary Op.Div) [ x; c ] in
  let m = prim bld Op.Matmul [ y; w ] in
  let r = prim bld (Op.Unary Op.Relu) [ m ] in
  let z = prim bld (Op.Unary Op.Sqr) [ r ] in
  Graph.Build.finish bld ~outputs:[ z ]

let test_partition_pure_lax () =
  let g = Baselines.Templates.rmsnorm_matmul_spec ~b:4 ~h:8 ~d:16 in
  let p = Mirage.Partition.partition g in
  Alcotest.(check int) "one piece" 1 (List.length p.Mirage.Partition.pieces);
  Alcotest.(check int) "one LAX piece" 1 (Mirage.Partition.num_lax_pieces p);
  let piece = List.hd p.Mirage.Partition.pieces in
  Alcotest.(check int) "same op count" (Graph.kernel_op_count g)
    (Graph.kernel_op_count piece.Mirage.Partition.graph)

let test_partition_splits_at_relu () =
  let g = program_with_relu () in
  let p = Mirage.Partition.partition g in
  Alcotest.(check int) "three pieces" 3 (List.length p.Mirage.Partition.pieces);
  Alcotest.(check int) "two LAX pieces" 2 (Mirage.Partition.num_lax_pieces p);
  (* the relu piece is the non-LAX one and has exactly one operator *)
  let non_lax =
    List.find (fun pc -> not pc.Mirage.Partition.lax) p.Mirage.Partition.pieces
  in
  Alcotest.(check int) "relu alone" 1
    (Graph.kernel_op_count non_lax.Mirage.Partition.graph)

let test_partition_pieces_compose () =
  (* evaluating the pieces in order reproduces the original program *)
  let g = program_with_relu () in
  let p = Mirage.Partition.partition g in
  let st = Random.State.make [| 5 |] in
  let rand shape =
    Tensor.Dense.init shape (fun _ -> 0.1 +. Random.State.float st 1.0)
  in
  let x = rand [| 4; 8 |] and c = rand [| 4; 1 |] and w = rand [| 8; 8 |] in
  let expected =
    List.hd
      (Interp.eval_kernel Tensor.Element.float_ops g ~inputs:[ x; c; w ])
  in
  (* run the pieces, binding produced tensors by input name *)
  let env = Hashtbl.create 8 in
  Hashtbl.replace env "X" x;
  Hashtbl.replace env "C" c;
  Hashtbl.replace env "W" w;
  let last = ref None in
  List.iter
    (fun (piece : Mirage.Partition.piece) ->
      let inputs =
        List.map
          (fun n ->
            match Hashtbl.find_opt env n with
            | Some t -> t
            | None -> Alcotest.failf "unbound piece input %s" n)
          (Graph.input_names piece.Mirage.Partition.graph)
      in
      let outs =
        Interp.eval_kernel Tensor.Element.float_ops
          piece.Mirage.Partition.graph ~inputs
      in
      (* bind outputs under the names later pieces use *)
      List.iteri
        (fun i name ->
          Hashtbl.replace env name (List.nth outs i);
          last := Some (List.nth outs i))
        piece.Mirage.Partition.output_names)
    p.Mirage.Partition.pieces;
  ignore !last;
  (* the composition is checked indirectly: the LAST piece's output must
     match the original program (names flow through the env) *)
  match !last with
  | Some actual ->
      Alcotest.(check bool) "composition reproduces program" true
        (Tensor.Dense.equal
           (fun a b -> Tensor.Element.float_approx_equal ~rtol:1e-6 a b)
           expected actual)
  | None -> Alcotest.fail "no output"

let test_partition_diamond_through_relu () =
  (* m feeds both relu(m) and a matmul that also consumes relu(m): merging
     the two LAX matmuls would make the component graph cyclic (this used
     to trip the piece-ordering assertion). *)
  let bld = Graph.Build.create () in
  let a = Graph.Build.input bld "A" [| 2; 2 |] in
  let m = prim bld Op.Matmul [ a; a ] in
  let r = prim bld (Op.Unary Op.Relu) [ m ] in
  let z = prim bld Op.Matmul [ m; r ] in
  let g = Graph.Build.finish bld ~outputs:[ z ] in
  let check_order g p =
    (* pieces come out in dependency order: each piece's inputs were
       produced by an earlier piece (or are program inputs) *)
    let seen = Hashtbl.create 8 in
    List.iter (fun n -> Hashtbl.replace seen n ()) (Graph.input_names g);
    List.iter
      (fun (piece : Mirage.Partition.piece) ->
        List.iter
          (fun n ->
            if not (Hashtbl.mem seen n) then
              Alcotest.failf "piece %d consumes %s before it is produced"
                piece.Mirage.Partition.id n)
          (Graph.input_names piece.Mirage.Partition.graph);
        List.iter
          (fun n -> Hashtbl.replace seen n ())
          piece.Mirage.Partition.output_names)
      p.Mirage.Partition.pieces
  in
  let p = Mirage.Partition.partition g in
  Alcotest.(check int) "three pieces" 3 (List.length p.Mirage.Partition.pieces);
  Alcotest.(check int) "two LAX pieces" 2 (Mirage.Partition.num_lax_pieces p);
  check_order g p;
  (* the outside path may also leave from deeper inside the producer's
     component: m -> sum(m) -> sub(sum m, relu m) *)
  let bld = Graph.Build.create () in
  let a = Graph.Build.input bld "A" [| 3; 3 |] in
  let m = prim bld Op.Matmul [ a; a ] in
  let r = prim bld (Op.Unary Op.Relu) [ m ] in
  let s = prim bld (Op.Sum { dim = 1; group = 3 }) [ m ] in
  let z = prim bld (Op.Binary Op.Sub) [ s; r ] in
  let g2 = Graph.Build.finish bld ~outputs:[ z ] in
  let p2 = Mirage.Partition.partition g2 in
  check_order g2 p2

(* One line per piece: id, LAX or not, operator count, input names ->
   output names, and the piece graph's hash. *)
let piece_lines (p : Mirage.Partition.t) =
  List.map
    (fun (pc : Mirage.Partition.piece) ->
      Printf.sprintf "%d %s %d [%s] -> [%s] %d" pc.Mirage.Partition.id
        (if pc.Mirage.Partition.lax then "lax" else "non-lax")
        (Graph.kernel_op_count pc.Mirage.Partition.graph)
        (String.concat "," (Graph.input_names pc.Mirage.Partition.graph))
        (String.concat "," pc.Mirage.Partition.output_names)
        (Graph.hash pc.Mirage.Partition.graph))
    p.Mirage.Partition.pieces

(* The pieces of the six reduced Fig. 7 specs and of the cyclic-merge
   cases m -> relu(m) -> f(m, relu m), pinned so that a change to the
   merge's cycle check that moves a piece boundary shows. *)
let test_partition_pinned () =
  let diamond =
    let bld = Graph.Build.create () in
    let a = Graph.Build.input bld "A" [| 2; 2 |] in
    let m = prim bld Op.Matmul [ a; a ] in
    let r = prim bld (Op.Unary Op.Relu) [ m ] in
    let z = prim bld Op.Matmul [ m; r ] in
    Graph.Build.finish bld ~outputs:[ z ]
  in
  let diamond_sum =
    let bld = Graph.Build.create () in
    let a = Graph.Build.input bld "A" [| 3; 3 |] in
    let m = prim bld Op.Matmul [ a; a ] in
    let r = prim bld (Op.Unary Op.Relu) [ m ] in
    let s = prim bld (Op.Sum { dim = 1; group = 3 }) [ m ] in
    let z = prim bld (Op.Binary Op.Sub) [ s; r ] in
    Graph.Build.finish bld ~outputs:[ z ]
  in
  let specs =
    List.map
      (fun (b : Workloads.Bench_defs.benchmark) ->
        (b.Workloads.Bench_defs.name, fst (b.Workloads.Bench_defs.reduced ())))
      (Workloads.Bench_defs.all ())
    @ [ ("diamond", diamond); ("relu", program_with_relu ()); ("sum", diamond_sum) ]
  in
  let expected =
    [
      ("GQA", [ "0 lax 6 [K,Q,V] -> [t8_0] 109887459" ]);
      ("QKNorm", [ "0 lax 14 [Q,K,V] -> [t16_0] 190960038" ]);
      ("RMSNorm", [ "0 lax 6 [X,G,W] -> [t8_0] 179093644" ]);
      ("LoRA", [ "0 lax 4 [A,X,Bm,W] -> [t7_0] 1004643217" ]);
      ("GatedMLP", [ "0 lax 4 [X,W1,W2] -> [t6_0] 720640230" ]);
      ("nTrans", [ "0 lax 11 [H,Xt,Alpha] -> [t13_0] 409807467" ]);
      ( "diamond",
        [
          "0 lax 1 [A] -> [t1_0] 692534746";
          "1 non-lax 1 [t1_0] -> [t2_0] 333861441";
          "2 lax 1 [t1_0,t2_0] -> [t3_0] 987628343";
        ] );
      ( "relu",
        [
          "0 lax 2 [X,C,W] -> [t4_0] 986747557";
          "1 non-lax 1 [t4_0] -> [t5_0] 94476666";
          "2 lax 1 [t5_0] -> [t6_0] 123711";
        ] );
      ( "sum",
        [
          "0 lax 2 [A] -> [t1_0,t3_0] 801284306";
          "1 non-lax 1 [t1_0] -> [t2_0] 454646958";
          "2 lax 1 [t3_0,t2_0] -> [t4_0] 865546316";
        ] );
    ]
  in
  Alcotest.(check (list string)) "every case pinned" (List.map fst expected)
    (List.map fst specs);
  List.iter
    (fun (name, g) ->
      Alcotest.(check (list string)) name (List.assoc name expected)
        (piece_lines (Mirage.Partition.partition g)))
    specs

let test_partition_rejects_scheduled () =
  let g =
    Baselines.Templates.rmsnorm_matmul_fused ~b:4 ~h:8 ~d:16 ~grid:2 ~iters:2
  in
  match Mirage.Partition.partition g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a graph with custom kernels"

let test_superoptimize_end_to_end () =
  (* small program: div + matmul; the pipeline must find the fused kernel,
     verify it, and report a speedup *)
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 4; 8 |] in
  let c = Graph.Build.input bld "C" [| 4; 1 |] in
  let w = Graph.Build.input bld "W" [| 8; 16 |] in
  let y = prim bld (Op.Binary Op.Div) [ x; c ] in
  let z = prim bld Op.Matmul [ y; w ] in
  let g = Graph.Build.finish bld ~outputs:[ z ] in
  let config =
    Search.Config.for_spec
      ~base:
        {
          Search.Config.default with
          Search.Config.grid_candidates = [ [| 2 |] ];
          forloop_candidates = [ [| 2 |] ];
          max_block_ops = 4;
          num_workers = 1;
          time_budget_s = 60.0;
        }
      g
  in
  let r = Mirage.superoptimize ~config ~device:Gpusim.Device.a100 g in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f > 1.5" r.Mirage.speedup)
    true (r.Mirage.speedup > 1.5);
  Alcotest.(check bool) "summary printable" true
    (String.length (Mirage.summary r) > 0)

(* The summary's verified count is the search's own: a search that
   emits nothing verifies nothing, even though the spec is returned. *)
let test_summary_counts_no_verified () =
  let g = Baselines.Templates.rmsnorm_matmul_spec ~b:4 ~h:8 ~d:16 in
  let config =
    Search.Config.for_spec
      ~base:
        {
          Search.Config.default with
          Search.Config.grid_candidates = [];
          forloop_candidates = [];
          max_kernel_ops = 0;
          num_workers = 1;
        }
      g
  in
  let r = Mirage.superoptimize ~config ~device:Gpusim.Device.a100 g in
  let summary = Mirage.summary r in
  Alcotest.(check bool)
    ("no candidates, none verified: " ^ summary)
    true
    (Astring_contains.contains summary "[0 candidates, 0 verified]")

(* What a search costs before it explores anything: the reduced QKNorm
   spec on the search_fig7 menu at one worker, whose levels the
   goal-distance cut skips, so nearly every word is set-up. Its tables
   start small and a lane's memos are made when it starts; with tables
   sized for a long search it allocated 16 970 words. *)
let test_fixed_cost () =
  let b = Option.get (Workloads.Bench_defs.by_name "QKNorm") in
  let spec, _ = b.Workloads.Bench_defs.reduced () in
  let config =
    Search.Config.for_spec
      ~base:
        {
          Search.Config.default with
          Search.Config.grid_candidates = [ [| 2 |] ];
          forloop_candidates = [ [| 2 |] ];
          max_block_ops = 3;
          num_workers = 1;
          time_budget_s = 0.0;
        }
      spec
  in
  let search () =
    ignore (Mirage.superoptimize ~config ~device:Gpusim.Device.a100 spec)
  in
  search ();
  let b0 = Gc.allocated_bytes () in
  search ();
  let words =
    (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= 5000" words)
    true (words <= 5000.0)

(* --- code generation --------------------------------------------------- *)

let emit_c name g = Codegen.C_emit.emit (Impir.Lower.lower ~name g)

let test_codegen_structure () =
  let g =
    Baselines.Templates.rmsnorm_matmul_fused ~b:16 ~h:1024 ~d:4096 ~grid:128
      ~iters:16
  in
  let c = emit_c "rms" g in
  let has = Astring_contains.contains c in
  (* One custom kernel function, its shared tiles at planned offsets,
     barriers between schedule depths, the 16-step data-stream loop and
     the 128-block grid. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (has needle))
    [
      "static void rms_kernel_";
      "smem+";
      "/* barrier */";
      "for (int i = 0; i < 16";
      "mma_tile";
      "accumulate";
      "store_tile";
      "ew_sqrt";
      "for (int g0 = 0; g0 < 128; ++g0) { /* grid axis 0 */";
    ];
  Alcotest.(check bool) "has a meaningful size" true
    (Codegen.C_emit.loc c > 30)

let test_codegen_thread_graph () =
  let g =
    Search.Thread_fuse.fuse_kernel
      (Baselines.Templates.ntrans_fused ~b:4 ~d:32 ~grid:4)
  in
  Alcotest.(check bool) "register-file thread graph emitted" true
    (Astring_contains.contains (emit_c "ntrans" g) "register file")

(* Kernel-level operators (no block graph) each become a standalone op
   function named after the operator, not a custom kernel. *)
let test_codegen_library_calls () =
  let c = emit_c "lora" (Baselines.Templates.lora_spec ~m:32 ~k:16 ~r:4 ~n:8) in
  let has = Astring_contains.contains c in
  Alcotest.(check bool) "library matmuls" true
    (has "static void lora_op_" && has "= Matmul(");
  Alcotest.(check bool) "no custom kernel" false (has "lora_kernel_")

let () =
  Alcotest.run "mirage"
    [
      ( "partition",
        [
          Alcotest.test_case "pure LAX" `Quick test_partition_pure_lax;
          Alcotest.test_case "splits at relu" `Quick
            test_partition_splits_at_relu;
          Alcotest.test_case "pieces compose" `Quick
            test_partition_pieces_compose;
          Alcotest.test_case "diamond through relu" `Quick
            test_partition_diamond_through_relu;
          Alcotest.test_case "pieces pinned" `Quick test_partition_pinned;
          Alcotest.test_case "rejects scheduled graphs" `Quick
            test_partition_rejects_scheduled;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "superoptimize end-to-end" `Slow
            test_superoptimize_end_to_end;
          Alcotest.test_case "summary counts no verified" `Quick
            test_summary_counts_no_verified;
          Alcotest.test_case "a skipped search's fixed cost" `Quick
            test_fixed_cost;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "kernel structure" `Quick test_codegen_structure;
          Alcotest.test_case "thread graphs" `Quick test_codegen_thread_graph;
          Alcotest.test_case "library calls" `Quick test_codegen_library_calls;
        ] );
    ]
