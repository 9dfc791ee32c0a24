(* Quickstart: build a tensor program, run it, superoptimize it.

   The program is the paper's §3 running example — RMSNorm followed by a
   linear layer — at toy dimensions so that the full pipeline (search,
   finite-field verification, cost model, code generation) completes in a
   few seconds.

     dune exec examples/quickstart.exe *)

open Mugraph
open Tensor

let () =
  (* 1. Describe the computation as a kernel graph (the "algorithm"):
        a row-normalized linear layer, Z = (X / C) x W. Deliberately
        small so the exhaustive search finishes in seconds on one core;
        the full §3 RMSNorm case study is examples/rmsnorm_fusion.exe
        and `bench/main.exe casestudy rmsnorm`. *)
  let b, h, d = (4, 8, 16) in
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| b; h |] in
  let c = Graph.Build.input bld "C" [| b; 1 |] in
  let w = Graph.Build.input bld "W" [| h; d |] in
  let y = Graph.Build.prim bld (Op.Binary Op.Div) [ x; c ] in
  let z = Graph.Build.prim bld Op.Matmul [ y; w ] in
  let program = Graph.Build.finish bld ~outputs:[ z ] in
  Printf.printf "Input program:\n%s\n\n" (Pretty.kernel_graph_to_string program);

  (* 2. Run it on real numbers with the reference interpreter. *)
  let st = Random.State.make [| 42 |] in
  let rand shape = Dense.init shape (fun _ -> 0.5 +. Random.State.float st 1.0) in
  let inputs = [ rand [| b; h |]; rand [| b; 1 |]; rand [| h; d |] ] in
  let outputs = Interp.eval_kernel Element.float_ops program ~inputs in
  Printf.printf "Z[0,0] = %g\n\n" (Dense.get (List.hd outputs) [| 0; 0 |]);

  (* 3. Superoptimize: search muGraphs (the fused kernel needs the
        division to commute with the matmul — an algebraic transformation
        — plus accumulation scheduling), verify candidates over finite
        fields, pick the cheapest under the A100 cost model. *)
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
      program
  in
  let report =
    Mirage.superoptimize ~config ~device:Gpusim.Device.a100 program
  in
  print_string (Mirage.summary report);

  (* 4. Inspect the best muGraph and the CUDA Mirage would generate. *)
  match report.Mirage.pieces with
  | [ piece ] ->
      Printf.printf "\nBest muGraph:\n%s\n"
        (Pretty.kernel_graph_to_string piece.Mirage.best);
      (* The optimized muGraph computes the same function: *)
      let opt_out =
        Interp.eval_kernel Element.float_ops piece.Mirage.best ~inputs
      in
      let close =
        Dense.equal
          (fun a b -> Element.float_approx_equal ~rtol:1e-6 a b)
          (List.hd outputs) (List.hd opt_out)
      in
      Printf.printf "outputs agree with the input program: %b\n\n" close;
      print_string
        (Codegen.C_emit.emit
           (Impir.Lower.lower ~name:"quickstart" piece.Mirage.best))
  | _ -> ()
