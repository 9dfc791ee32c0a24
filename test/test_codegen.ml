(* Code-generator tests.

   Golden snapshots pin the emitted text for small fixed muGraphs so any
   change to the lowering or rendering shows up as a reviewable diff, not
   a silent drift. The fixtures cover the three structures the emitter
   must handle: a custom block kernel with a for-loop and accumulators
   (the rmsnorm fused plan), the Concat_matmul operator, and a
   multi-kernel graph with an intermediate tensor crossing a kernel
   (partition) boundary. The runnable C renderer is pinned: the concat
   program as a full golden, the rmsnorm plan by its landmarks.

   The property suite checks the lowering is *total* over random
   well-typed muGraphs (it never raises, and the result passes
   {!Impir.Ir.check_program}) and that every layout chosen by
   {!Opt.Layout_opt} is honored by the emitted addressing: the index
   function {!Impir.Ir.index} of each shared buffer evaluates, at every
   coordinate, to the dot product with that layout's strides.

   The lean-C group checks the lowering's integer-only rewrites:
   collapsing loop nests moves no store or load of a Fig. 7 plan, and
   the C the plans emit is lean (no header, no division left in a
   row-major reshape, fewer lines than before the flat reshapes and
   the collapse).

   The differential suite is the end-to-end gate: each Figure 7
   workload's winning muGraph (the reduced Mirage plan, plus one winner
   produced by an actual tiny-budget search) is lowered, compiled with
   the system [cc] (ASan when available), executed on random inputs
   through the subprocess harness, and compared against the float
   interpreter to 1e-4. Failures leave the C file and inputs in a
   report directory. When no [cc] is present the suite skips loudly. *)

open Mugraph

let golden_check ~name ~expected actual =
  let norm s = String.trim s in
  if norm actual <> norm expected then begin
    Printf.printf "=== ACTUAL %s ===\n%s=== END %s ===\n" name actual name;
    Alcotest.failf "%s: emitted text drifted from the golden (actual dumped \
                    above; update the golden if the change is intended)"
      name
  end

let rmsnorm_plan () =
  match Workloads.Bench_defs.by_name "rmsnorm" with
  | Some b -> snd (b.Workloads.Bench_defs.reduced ())
  | None -> Alcotest.fail "rmsnorm benchmark missing"

(* Concat_matmul across a kernel boundary: the concat-matmul's result is
   an intermediate global tensor consumed by a second kernel-level op. *)
let concat_boundary_graph () =
  let b = Graph.Build.create () in
  let w = Graph.Build.input b "W" [| 4; 2 |] in
  let x = Graph.Build.input b "X" [| 4; 3 |] in
  let y = Graph.Build.input b "Y" [| 2; 5 |] in
  let z = Graph.Build.input b "Z" [| 3; 5 |] in
  let cm = Graph.Build.prim b Op.Concat_matmul [ w; x; y; z ] in
  let e = Graph.Build.prim b (Op.Unary Op.Exp) [ cm ] in
  Graph.Build.finish b ~outputs:[ e ]

(* The runnable C rendering of the concat program: the Concat_matmul
   reduce loops and the harness metadata/entry points are pinned here. *)
let golden_concat_c = {golden|
/* Mirage runnable C backend: concat */

/* inter-kernel temporaries */
static double t4_0[20]; /* [4][5] */
static double t5_0[20]; /* [4][5] */

static void concat_op_4(const double *a0, const double *a1, const double *a2, const double *a3, double *o0) {
  /* o0 = ConcatMatmul(a0, a1, a2, a3) */
  for (int i0 = 0; i0 < 4; ++i0) {
    for (int i1 = 0; i1 < 5; ++i1) {
      double acc2 = 0.0;
      for (int r4 = 0; r4 < 2; ++r4) {
        acc2 = (acc2 + (a0[((i0 * 2) + r4)] * a2[((r4 * 5) + i1)]));
      }
      for (int r3 = 0; r3 < 3; ++r3) {
        acc2 = (acc2 + (a1[((i0 * 3) + r3)] * a3[((r3 * 5) + i1)]));
      }
      o0[((i0 * 5) + i1)] = acc2;
    }
  }
}

static void concat_op_5(const double *a0, double *o0) {
  /* o0 = EwExp(a0) */
  for (int i0 = 0; i0 < 20; ++i0) {
    o0[i0] = __builtin_exp(a0[i0]);
  }
}

int mirage_num_inputs(void) { return 4; }

long mirage_input_size(int i) {
  switch (i) {
  case 0: return 8;
  case 1: return 12;
  case 2: return 10;
  case 3: return 15;
  default: return -1;
  }
}

int mirage_num_outputs(void) { return 1; }

long mirage_output_size(int i) {
  switch (i) {
  case 0: return 20;
  default: return -1;
  }
}

void mirage_entry(const double **in, double **out) {
  concat_op_4(in[0], in[1], in[2], in[3], t4_0);
  concat_op_5(t4_0, t5_0);
  __builtin_memcpy(out[0], t5_0, 20 * sizeof(double));
}
|golden}

let test_golden_concat_c () =
  golden_check ~name:"concat.c" ~expected:golden_concat_c
    (Codegen.C_emit.emit
       (Impir.Lower.lower ~name:"concat" (concat_boundary_graph ())))

(* The rmsnorm C rendering is long; instead of a page-sized
   golden, pin the structural landmarks that distinguish the C backend:
   serial grid loops, barrier comments, layout-annotated static shared
   buffers, and the harness entry points. *)
let test_c_structure () =
  let c =
    Codegen.C_emit.emit (Impir.Lower.lower ~name:"rmsnorm" (rmsnorm_plan ()))
  in
  let has needle = Astring_contains.contains c needle in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (has needle))
    [
      "/* grid axis 0 */";
      "/* data-stream loop */";
      "/* barrier */";
      "col-major";
      "static double s2[32];";
      "int mirage_num_inputs(void) { return 3; }";
      "long mirage_input_size(int i)";
      "void mirage_entry(const double **in, double **out)";
    ]

(* --- properties -------------------------------------------------------- *)

(* Lowering is total over random well-typed muGraphs, and the result is
   statically well-formed (scoping, call arity, loop binding). *)
let prop_lowering_total =
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:80 ~name:"lowering total + well-formed"
       ~print:Pretty.kernel_graph_to_string
       (Graph_gen.gen_graph ())
       (fun g ->
         let p = Impir.Lower.lower ~name:"prop" g in
         (match Impir.Ir.check_program p with
         | Ok () -> ()
         | Error e -> QCheck2.Test.fail_reportf "ill-formed program: %s" e);
         String.length (Codegen.C_emit.emit p) > 0))

(* Deterministic block-level counterpart: every Figure 7 winning plan
   (which graph_gen cannot produce — it generates kernel-level graphs)
   lowers to a well-formed program that renders to C. *)
let test_fig7_lowering () =
  List.iter
    (fun (b : Workloads.Bench_defs.benchmark) ->
      let name = String.lowercase_ascii b.Workloads.Bench_defs.name in
      let _, plan = b.Workloads.Bench_defs.reduced () in
      let p = Impir.Lower.lower ~name plan in
      (match Impir.Ir.check_program p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: ill-formed program: %s" name e);
      Alcotest.(check bool)
        (name ^ " C emits") true
        (String.length (Codegen.C_emit.emit p) > 0))
    (Workloads.Bench_defs.all ())

let iter_coords shape f =
  let rank = Array.length shape in
  let c = Array.make rank 0 in
  let rec go d = if d = rank then f c
    else
      for v = 0 to shape.(d) - 1 do
        c.(d) <- v;
        go (d + 1)
      done
  in
  go 0

(* Round-trip: every index-function layout chosen by Layout_opt is
   honored by the emitted addressing. We lower with the optimizer's
   assignment pinned explicitly, then check (a) each shared buffer
   carries the assigned layout and (b) the index expression the
   backends render evaluates, at every coordinate, to the dot product
   with that layout's strides — i.e. the stride math in the generated
   code is exactly the layout's index function. *)
let test_layout_roundtrip () =
  let checked = ref 0 in
  List.iter
    (fun (b : Workloads.Bench_defs.benchmark) ->
      let name = String.lowercase_ascii b.Workloads.Bench_defs.name in
      let _, plan = b.Workloads.Bench_defs.reduced () in
      let layouts = Opt.Layout_opt.optimize plan in
      let p = Impir.Lower.lower ~layouts ~name plan in
      List.iter
        (fun (ki, (asn : Opt.Layout_opt.assignment)) ->
          let kname = Printf.sprintf "%s_kernel_%d" name ki in
          match
            List.find_opt
              (fun (k : Impir.Ir.kernel) -> k.Impir.Ir.kname = kname)
              p.Impir.Ir.kernels
          with
          | None -> Alcotest.failf "%s: no kernel for layout assignment" kname
          | Some k ->
              List.iter
                (fun (bi, layout) ->
                  let bname = Printf.sprintf "s%d" bi in
                  match
                    List.find_opt
                      (fun ((bf : Impir.Ir.buf), _) ->
                        bf.Impir.Ir.bname = bname)
                      k.Impir.Ir.shared
                  with
                  | None -> () (* outsavers have no shared buffer *)
                  | Some (bf, _) ->
                      let shape = bf.Impir.Ir.shape in
                      if Tensor.Layout.is_valid layout shape then begin
                        incr checked;
                        Alcotest.(check string)
                          (Printf.sprintf "%s.%s layout" kname bname)
                          (Tensor.Layout.to_string layout)
                          (Tensor.Layout.to_string bf.Impir.Ir.layout);
                        let st = Tensor.Layout.strides layout shape in
                        let rank = Array.length shape in
                        let vars =
                          Array.init rank (Printf.sprintf "x%d")
                        in
                        let ix =
                          Impir.Ir.index bf (Array.map Impir.Ir.ivar vars)
                        in
                        iter_coords shape (fun c ->
                            let env v =
                              let rec find d =
                                if d = rank then
                                  Alcotest.failf "%s.%s: free var %s" kname
                                    bname v
                                else if vars.(d) = v then c.(d)
                                else find (d + 1)
                              in
                              find 0
                            in
                            let got = Impir.Ir.eval_iexp env ix in
                            let want = ref 0 in
                            Array.iteri
                              (fun d v -> want := !want + (v * st.(d)))
                              c;
                            if got <> !want then
                              Alcotest.failf
                                "%s.%s: index %s = %d at %s, strides say %d"
                                kname bname
                                (Impir.Ir.iexp_to_string ix)
                                got
                                (String.concat ","
                                   (Array.to_list
                                      (Array.map string_of_int c)))
                                !want)
                      end)
                asn.Opt.Layout_opt.layouts)
        layouts)
    (Workloads.Bench_defs.all ());
  Alcotest.(check bool)
    (Printf.sprintf "checked %d shared buffers" !checked)
    true (!checked > 10)

(* --- loop collapse and lean C ------------------------------------------ *)

module Ir = Impir.Ir

let iter_box extents f =
  let n = Array.length extents in
  let pt = Array.make n 0 in
  let rec go d =
    if d = n then f pt
    else
      for v = 0 to extents.(d) - 1 do
        pt.(d) <- v;
        go (d + 1)
      done
  in
  go 0

(* The six Fig. 7 template plans on the path codegen_fig7 takes: the
   optimizer's layouts, then the lowering. *)
let fig7_programs lower =
  List.map
    (fun (b : Workloads.Bench_defs.benchmark) ->
      let name = b.Workloads.Bench_defs.name in
      let _, plan = b.Workloads.Bench_defs.reduced () in
      let layouts =
        Opt.Optimizer.layouts (Opt.Optimizer.optimize Gpusim.Device.a100 plan)
      in
      (name, lower ~layouts ~name plan))
    (Workloads.Bench_defs.all ())

(* Every store and load of a kernel body in statement order, each with
   the addresses it touches over its enclosing loops, in iteration
   order. *)
let accesses body =
  let sites = ref [] in
  let site loops kind (b : Ir.buf) idx =
    let loops = Array.of_list (List.rev loops) in
    let addrs = ref [] in
    iter_box (Array.map snd loops) (fun pt ->
        let env v =
          let rec find d =
            if fst loops.(d) = v then pt.(d) else find (d + 1)
          in
          find 0
        in
        addrs := Ir.eval_iexp env idx :: !addrs);
    sites := (kind, b.Ir.bname, List.rev !addrs) :: !sites
  in
  let rec vexp loops = function
    | Ir.Load (b, i) -> site loops "load" b i
    | Ir.Bin (_, a, b) ->
        vexp loops a;
        vexp loops b
    | Ir.Un (_, a) -> vexp loops a
    | Ir.Const _ | Ir.Temp _ -> ()
  in
  let rec stmt loops = function
    | Ir.For { v; n; body; _ } -> List.iter (stmt ((v, n) :: loops)) body
    | Ir.Decl { init = e; _ } | Ir.Assign { e; _ } -> vexp loops e
    | Ir.Store { dst; idx; e } | Ir.Store_add { dst; idx; e } ->
        vexp loops e;
        site loops "store" dst idx
    | Ir.Barrier | Ir.Comment _ -> ()
  in
  List.iter (stmt []) body;
  List.rev !sites

let rec count_loops body =
  List.fold_left
    (fun acc -> function
      | Ir.For { body; _ } -> acc + 1 + count_loops body
      | _ -> acc)
    0 body

(* Collapsing changes no access: each store and load of every Fig. 7
   plan touches the same addresses, in the same order, as in the
   uncollapsed nest. *)
let test_collapse_addresses () =
  let merged = ref 0 in
  List.iter2
    (fun (name, (nested : Ir.program)) (_, (flat : Ir.program)) ->
      List.iter2
        (fun (kn : Ir.kernel) (kf : Ir.kernel) ->
          let a = accesses kn.Ir.body and b = accesses kf.Ir.body in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s sites" name kn.Ir.kname)
            (List.length a) (List.length b);
          List.iteri
            (fun j ((ka, ba, xa), (kb, bb, xb)) ->
              if ka <> kb || ba <> bb || xa <> xb then
                Alcotest.failf "%s/%s: access %d (%s %s) moved under collapse"
                  name kn.Ir.kname j ka ba)
            (List.combine a b);
          merged := !merged + count_loops kn.Ir.body - count_loops kf.Ir.body)
        nested.Ir.kernels flat.Ir.kernels)
    (fig7_programs (fun ~layouts -> Impir.Lower.nests ~layouts))
    (fig7_programs (fun ~layouts -> Impir.Lower.lower ~layouts));
  Alcotest.(check bool)
    (Printf.sprintf "%d loops merged" !merged)
    true (!merged > 10)

(* What cc gets for the Fig. 7 plans: no header, no quotient or
   remainder left in a row-major [Reshape], and fewer lines than the
   1 044 the six plans took before flat reshapes and loop
   collapse. *)
let test_fig7_lean_c () =
  let total = ref 0 in
  List.iter
    (fun (name, prog) ->
      let c = Codegen.C_emit.emit prog in
      total := !total + Codegen.C_emit.loc c;
      if Astring_contains.contains c "#include" then
        Alcotest.failf "%s: emitted C includes a header" name;
      let lines = Array.of_list (String.split_on_char '\n' c) in
      let row_major buf =
        (* kernel-level buffers are row-major globals; a shared one says
           its layout where it is declared *)
        let decl = Printf.sprintf "static double %s[" buf in
        not
          (Array.exists
             (fun l ->
               Astring_contains.contains l decl
               && not (Astring_contains.contains l "row-major"))
             lines)
      in
      let reshape_of l =
        let t = String.trim l in
        if Astring_contains.contains t "= Reshape[" then Some []
        else
          Scanf.sscanf_opt t "/* reshape(%[^,], %[^)]) */" (fun d s ->
              [ d; s ])
      in
      let n = Array.length lines in
      Array.iteri
        (fun i l ->
          match reshape_of l with
          | Some bufs when List.for_all row_major bufs ->
              let j = ref (i + 1) in
              while
                !j < n
                && (let t = String.trim lines.(!j) in
                    not
                      (String.length t >= 2 && String.sub t 0 2 = "/*"
                      || lines.(!j) = "}"))
              do
                let l = lines.(!j) in
                if String.contains l '/' || String.contains l '%' then
                  Alcotest.failf "%s: a row-major reshape still divides: %s"
                    name (String.trim l);
                incr j
              done
          | _ -> ())
        lines)
    (fig7_programs (fun ~layouts -> Impir.Lower.lower ~layouts));
  Alcotest.(check bool)
    (Printf.sprintf "six plans emit %d lines (< 1044)" !total)
    true (!total < 1044)

(* --- differential: generated code vs the interpreter ------------------- *)

let report_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "mirage_codegen_reports"

let skip_no_cc () =
  Printf.printf
    "\n*** SKIPPING differential codegen test: no working C compiler (cc) \
     found in PATH — the runnable backend cannot be exercised here. ***\n%!"

let run_differential ~name g =
  match Codegen.Differential.check ~report_dir ~name g with
  | Error e -> Alcotest.failf "%s: differential harness failed: %s" name e
  | Ok o ->
      Printf.printf "%s\n%!" (Codegen.Differential.pp_outcome o);
      if not o.Codegen.Differential.ok then
        Alcotest.failf
          "%s: generated code diverged from the interpreter: max rel err %g \
           > %g (forensics in %s)"
          name o.Codegen.Differential.max_rel_err o.Codegen.Differential.tol
          (Option.value ~default:"?" o.Codegen.Differential.report)

(* One test per Figure 7 workload: the winning (reduced Mirage) plan is
   lowered, compiled and executed, and must match the interpreter on 8
   random input sets to 1e-4. *)
let test_differential name () =
  if not (Codegen.C_exec.cc_available ()) then skip_no_cc ()
  else
    match Workloads.Bench_defs.by_name name with
    | None -> Alcotest.failf "unknown benchmark %s" name
    | Some b ->
        let _, plan = b.Workloads.Bench_defs.reduced () in
        run_differential ~name:(String.lowercase_ascii name) plan

(* End to end: an actual (tiny-budget) search produces the winner, and
   the winner's generated code must agree with the interpreter. *)
let test_search_winner_differential () =
  if not (Codegen.C_exec.cc_available ()) then skip_no_cc ()
  else begin
    let bld = Graph.Build.create () in
    let x = Graph.Build.input bld "X" [| 4; 8 |] in
    let c = Graph.Build.input bld "C" [| 4; 1 |] in
    let w = Graph.Build.input bld "W" [| 8; 16 |] in
    let y = Graph.Build.prim bld (Op.Binary Op.Div) [ x; c ] in
    let z = Graph.Build.prim bld Op.Matmul [ y; w ] in
    let spec = Graph.Build.finish bld ~outputs:[ z ] in
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
        spec
    in
    let o = Search.Generator.run ~config ~device:Gpusim.Device.a100 ~spec () in
    let winner =
      match o.Search.Generator.best with
      | Some r -> r.Search.Generator.graph
      | None -> Alcotest.fail "tiny search found no candidate"
    in
    run_differential ~name:"search_winner" winner
  end

(* The in-runner timing protocol: N runs of the entry in one process give
   the single run's outputs bit for bit (every kernel re-initializes its
   scratch), and a positive time per run. *)
let test_timed_runs () =
  if not (Codegen.C_exec.cc_available ()) then skip_no_cc ()
  else
    let dir = Filename.concat report_dir "timed" in
    List.iter
      (fun (name, prog) ->
        match Codegen.C_exec.compile ~dir prog with
        | Error m -> Alcotest.failf "%s: %s" name m
        | Ok c -> (
            let st = Random.State.make [| 5 |] in
            let ins =
              List.map
                (fun (b : Ir.buf) ->
                  Array.init (Ir.numel b) (fun _ -> Random.State.float st 2.0))
                prog.Ir.inputs
            in
            match
              (Codegen.C_exec.run c ins, Codegen.C_exec.time c ~iters:5 ins)
            with
            | Ok once, Ok (timed, per_run) ->
                let bits a = Array.map Int64.bits_of_float a in
                Alcotest.(check bool)
                  (name ^ " timed outputs = single run") true
                  (List.map bits once = List.map bits timed);
                Alcotest.(check bool)
                  (Printf.sprintf "%s %.3g s per run" name per_run)
                  true (per_run > 0.0)
            | Error m, _ | _, Error m -> Alcotest.failf "%s: %s" name m))
      (fig7_programs (fun ~layouts -> Impir.Lower.lower ~layouts))

let () =
  Alcotest.run "codegen"
    [
      ( "golden",
        [
          Alcotest.test_case "concat/partition-boundary C" `Quick
            test_golden_concat_c;
          Alcotest.test_case "rmsnorm C structure" `Quick test_c_structure;
        ] );
      ( "properties",
        [
          prop_lowering_total;
          Alcotest.test_case "fig7 plans lower well-formed" `Quick
            test_fig7_lowering;
          Alcotest.test_case "layouts honored by emitted addressing" `Quick
            test_layout_roundtrip;
        ] );
      ( "lean C",
        [
          Alcotest.test_case "collapse keeps every fig7 access" `Quick
            test_collapse_addresses;
          Alcotest.test_case "fig7 C is lean" `Quick test_fig7_lean_c;
        ] );
      ( "differential",
        Alcotest.test_case "search winner end-to-end" `Quick
          test_search_winner_differential
        :: Alcotest.test_case "timed runs repeat the single run" `Quick
             test_timed_runs
        :: List.map
             (fun n ->
               Alcotest.test_case (n ^ " vs interpreter") `Quick
                 (test_differential n))
             [ "GQA"; "QKNorm"; "RMSNorm"; "LoRA"; "GatedMLP"; "nTrans" ] );
    ]
