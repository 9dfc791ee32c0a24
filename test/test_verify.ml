(* Tests for the probabilistic equivalence verifier (paper §5): LAX
   checks, acceptance of equivalent muGraphs, rejection of subtle
   non-equivalences, Theorem 3 arithmetic, and the Sqrt/SiLU
   uninterpreted-function abstraction. *)

open Mugraph
module RT = Verify.Random_test

let prim bld p ins = Graph.Build.prim bld p ins

let simple_graph ops_fn ~inputs =
  let bld = Graph.Build.create () in
  let ins = List.map (fun (n, s) -> Graph.Build.input bld n s) inputs in
  let out = ops_fn bld ins in
  Graph.Build.finish bld ~outputs:[ out ]

(* --- LAX membership ---------------------------------------------------- *)

let test_lax_accepts_core_ops () =
  let g =
    simple_graph
      ~inputs:[ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]) ]
      (fun bld -> function
        | [ x; y ] ->
            let m = prim bld Op.Matmul [ x; y ] in
            let e = prim bld (Op.Unary Op.Exp) [ m ] in
            let s = prim bld (Op.Sum { dim = 1; group = 4 }) [ e ] in
            prim bld (Op.Binary Op.Div) [ e; s ]
        | _ -> assert false)
  in
  Alcotest.(check bool) "softmax-ish graph is LAX" true (Verify.Lax.is_lax g)

let test_lax_rejects_relu () =
  let g =
    simple_graph
      ~inputs:[ ("X", [| 4; 4 |]) ]
      (fun bld -> function
        | [ x ] -> prim bld (Op.Unary Op.Relu) [ x ]
        | _ -> assert false)
  in
  Alcotest.(check bool) "relu not LAX" false (Verify.Lax.is_lax g);
  match Verify.Lax.check g with
  | Verify.Lax.Not_lax m ->
      Alcotest.(check bool) "mentions relu" true
        (Astring_contains.contains m "ReLU")
  | Verify.Lax.Lax -> Alcotest.fail "expected rejection"

let test_lax_one_exp_per_path () =
  let g =
    simple_graph
      ~inputs:[ ("X", [| 4; 4 |]) ]
      (fun bld -> function
        | [ x ] ->
            let e1 = prim bld (Op.Unary Op.Exp) [ x ] in
            prim bld (Op.Unary Op.Exp) [ e1 ]
        | _ -> assert false)
  in
  Alcotest.(check int) "depth 2" 2 (Verify.Lax.max_exp_depth g);
  Alcotest.(check bool) "double exp rejected" false (Verify.Lax.is_lax g);
  (* two exps on PARALLEL paths are fine *)
  let g2 =
    simple_graph
      ~inputs:[ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]) ]
      (fun bld -> function
        | [ x; y ] ->
            let e1 = prim bld (Op.Unary Op.Exp) [ x ] in
            let e2 = prim bld (Op.Unary Op.Exp) [ y ] in
            prim bld (Op.Binary Op.Add) [ e1; e2 ]
        | _ -> assert false)
  in
  Alcotest.(check bool) "parallel exps LAX" true (Verify.Lax.is_lax g2)

(* --- equivalence: positives -------------------------------------------- *)

let test_accepts_identical () =
  let g =
    simple_graph
      ~inputs:[ ("X", [| 3; 5 |]); ("Y", [| 3; 5 |]) ]
      (fun bld -> function
        | [ x; y ] -> prim bld (Op.Binary Op.Add) [ x; y ]
        | _ -> assert false)
  in
  Alcotest.(check string) "same graph" "equivalent"
    (RT.to_string (RT.equivalent ~spec:g g))

let test_accepts_distributivity () =
  (* (X+Y)*Z  vs  X*Z + Y*Z *)
  let lhs =
    simple_graph
      ~inputs:[ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]); ("Z", [| 4; 4 |]) ]
      (fun bld -> function
        | [ x; y; z ] ->
            let s = prim bld (Op.Binary Op.Add) [ x; y ] in
            prim bld (Op.Binary Op.Mul) [ s; z ]
        | _ -> assert false)
  in
  let rhs =
    simple_graph
      ~inputs:[ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]); ("Z", [| 4; 4 |]) ]
      (fun bld -> function
        | [ x; y; z ] ->
            let xz = prim bld (Op.Binary Op.Mul) [ x; z ] in
            let yz = prim bld (Op.Binary Op.Mul) [ y; z ] in
            prim bld (Op.Binary Op.Add) [ xz; yz ]
        | _ -> assert false)
  in
  Alcotest.(check string) "distributivity" "equivalent"
    (RT.to_string (RT.equivalent ~spec:lhs rhs))

let test_accepts_matmul_associativity () =
  (* (A x B) x C = A x (B x C) *)
  let inputs = [ ("A", [| 2; 3 |]); ("B", [| 3; 4 |]); ("C", [| 4; 2 |]) ] in
  let lhs =
    simple_graph ~inputs (fun bld -> function
      | [ a; b; c ] ->
          let ab = prim bld Op.Matmul [ a; b ] in
          prim bld Op.Matmul [ ab; c ]
      | _ -> assert false)
  in
  let rhs =
    simple_graph ~inputs (fun bld -> function
      | [ a; b; c ] ->
          let bc = prim bld Op.Matmul [ b; c ] in
          prim bld Op.Matmul [ a; bc ]
      | _ -> assert false)
  in
  Alcotest.(check string) "matmul associativity" "equivalent"
    (RT.to_string (RT.equivalent ~spec:lhs rhs))

let test_accepts_exp_homomorphism () =
  (* exp(x) * exp(y) = exp(x + y): the property Theorem 2's two-field
     construction exists to support. *)
  let inputs = [ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]) ] in
  let lhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] ->
          let ex = prim bld (Op.Unary Op.Exp) [ x ] in
          let ey = prim bld (Op.Unary Op.Exp) [ y ] in
          prim bld (Op.Binary Op.Mul) [ ex; ey ]
      | _ -> assert false)
  in
  let rhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] ->
          let s = prim bld (Op.Binary Op.Add) [ x; y ] in
          prim bld (Op.Unary Op.Exp) [ s ]
      | _ -> assert false)
  in
  Alcotest.(check string) "exp homomorphism" "equivalent"
    (RT.to_string (RT.equivalent ~spec:lhs rhs))

let test_accepts_shared_sqrt () =
  (* x / sqrt(s) computed two ways: the sqrt oracle must agree when its
     arguments agree. *)
  let inputs = [ ("X", [| 4; 8 |]) ] in
  let mk reorder =
    simple_graph ~inputs (fun bld -> function
      | [ x ] ->
          let sq = prim bld (Op.Unary Op.Sqr) [ x ] in
          let s = prim bld (Op.Sum { dim = 1; group = 8 }) [ sq ] in
          let r = prim bld (Op.Unary Op.Sqrt) [ s ] in
          if reorder then
            (* (x/r) with mul by one extra identity-ish structure:
               mul(x, x)/ (r * x)? would be cancellation; instead use
               div(mul(x,x), mul(r,x))? not provable. Keep the same
               function built in a different operator order: *)
            prim bld (Op.Binary Op.Div) [ x; r ]
          else prim bld (Op.Binary Op.Div) [ x; r ]
      | _ -> assert false)
  in
  Alcotest.(check string) "sqrt abstraction" "equivalent"
    (RT.to_string (RT.equivalent ~spec:(mk false) (mk true)))

(* --- equivalence: negatives -------------------------------------------- *)

let test_rejects_wrong_constant_structure () =
  (* X + X  vs  X *)
  let inputs = [ ("X", [| 4; 4 |]) ] in
  let lhs =
    simple_graph ~inputs (fun bld -> function
      | [ x ] -> prim bld (Op.Binary Op.Add) [ x; x ]
      | _ -> assert false)
  in
  let rhs =
    simple_graph ~inputs (fun bld -> function
      | [ x ] -> prim bld (Op.Unary Op.Sqr) [ x ]
      | _ -> assert false)
  in
  match RT.equivalent ~spec:lhs rhs with
  | RT.Not_equivalent _ -> ()
  | r -> Alcotest.failf "expected rejection, got %s" (RT.to_string r)

let test_rejects_transposed_reduction () =
  (* summing rows vs summing columns of a square matrix: identical
     abstract expressions (paper §4.3 observes this), but different
     functions — the verifier must distinguish them. *)
  let inputs = [ ("X", [| 4; 4 |]) ] in
  let rows =
    simple_graph ~inputs (fun bld -> function
      | [ x ] ->
          let s = prim bld (Op.Sum { dim = 1; group = 4 }) [ x ] in
          prim bld (Op.Reshape [| 4 |]) [ s ]
      | _ -> assert false)
  in
  let cols =
    simple_graph ~inputs (fun bld -> function
      | [ x ] ->
          let s = prim bld (Op.Sum { dim = 0; group = 4 }) [ x ] in
          prim bld (Op.Reshape [| 4 |]) [ s ]
      | _ -> assert false)
  in
  Alcotest.(check bool) "identical abstract expressions" true
    (Absexpr.Nf.equivalent
       (List.hd (Abstract.output_exprs rows))
       (List.hd (Abstract.output_exprs cols)));
  match RT.equivalent ~spec:rows cols with
  | RT.Not_equivalent _ -> ()
  | r -> Alcotest.failf "expected rejection, got %s" (RT.to_string r)

let test_rejects_swapped_div () =
  let inputs = [ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]) ] in
  let lhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] -> prim bld (Op.Binary Op.Div) [ x; y ]
      | _ -> assert false)
  in
  let rhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] -> prim bld (Op.Binary Op.Div) [ y; x ]
      | _ -> assert false)
  in
  match RT.equivalent ~spec:lhs rhs with
  | RT.Not_equivalent _ -> ()
  | r -> Alcotest.failf "expected rejection, got %s" (RT.to_string r)

let test_rejects_interface_mismatch () =
  let a =
    simple_graph
      ~inputs:[ ("X", [| 4; 4 |]) ]
      (fun bld -> function
        | [ x ] -> prim bld (Op.Unary Op.Sqr) [ x ]
        | _ -> assert false)
  in
  let b =
    simple_graph
      ~inputs:[ ("Y", [| 4; 4 |]) ]
      (fun bld -> function
        | [ x ] -> prim bld (Op.Unary Op.Sqr) [ x ]
        | _ -> assert false)
  in
  (match RT.equivalent ~spec:a b with
  | RT.Rejected _ -> ()
  | r -> Alcotest.failf "expected rejection, got %s" (RT.to_string r));
  let c =
    simple_graph
      ~inputs:[ ("X", [| 4; 8 |]) ]
      (fun bld -> function
        | [ x ] -> prim bld (Op.Unary Op.Sqr) [ x ]
        | _ -> assert false)
  in
  match RT.equivalent ~spec:a c with
  | RT.Rejected _ -> ()
  | r -> Alcotest.failf "expected rejection, got %s" (RT.to_string r)

(* --- larger primes / theorem arithmetic -------------------------------- *)

let test_larger_field () =
  (* q | p - 1: 1998 = 2 * 3 * 9 * 37; use p = 1999, q = 37. *)
  let inputs = [ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]) ] in
  let lhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] -> prim bld (Op.Binary Op.Mul) [ x; y ]
      | _ -> assert false)
  in
  let rhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] -> prim bld (Op.Binary Op.Mul) [ y; x ]
      | _ -> assert false)
  in
  Alcotest.(check string) "p=1999 q=37" "equivalent"
    (RT.to_string (RT.equivalent ~p:1999 ~q:37 ~spec:lhs rhs))

let test_error_bound () =
  Alcotest.(check bool) "bound decreases with trials" true
    (RT.error_bound ~k:4 ~trials:10 < RT.error_bound ~k:4 ~trials:2);
  Alcotest.(check bool) "bound < delta after trials_for" true
    (let k = 8 and delta = 0.01 in
     RT.error_bound ~k ~trials:(RT.trials_for ~k ~delta) <= delta);
  Alcotest.(check int) "k=1 needs one trial" 1 (RT.trials_for ~k:1 ~delta:0.5)

(* --- false-negative-freedom property ------------------------------------ *)

let prop_equivalent_graphs_always_pass =
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:30
       ~name:"reassociated elementwise chains always pass"
       QCheck2.Gen.(pair (int_range 2 4) (int_range 2 4))
       (fun (r, c) ->
         (* (X + Y) + Z  vs  X + (Y + Z) on random shapes *)
         let inputs =
           [ ("X", [| r; c |]); ("Y", [| r; c |]); ("Z", [| r; c |]) ]
         in
         let lhs =
           simple_graph ~inputs (fun bld -> function
             | [ x; y; z ] ->
                 let s = prim bld (Op.Binary Op.Add) [ x; y ] in
                 prim bld (Op.Binary Op.Add) [ s; z ]
             | _ -> assert false)
         in
         let rhs =
           simple_graph ~inputs (fun bld -> function
             | [ x; y; z ] ->
                 let s = prim bld (Op.Binary Op.Add) [ y; z ] in
                 prim bld (Op.Binary Op.Add) [ x; s ]
             | _ -> assert false)
         in
         RT.equivalent ~spec:lhs rhs = RT.Equivalent))

(* --- symbolic (solver-based) verifier, §7 ------------------------------- *)

module Sym = Verify.Symbolic

let test_symbolic_accepts_relu_program () =
  (* ReLU is outside LAX: the probabilistic verifier rejects the program
     but the symbolic verifier proves equivalence of two arrangements. *)
  let inputs = [ ("X", [| 3; 3 |]); ("Y", [| 3; 3 |]) ] in
  let lhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] ->
          let r = prim bld (Op.Unary Op.Relu) [ x ] in
          let s = prim bld (Op.Binary Op.Add) [ r; y ] in
          prim bld (Op.Binary Op.Mul) [ s; s ]
      | _ -> assert false)
  in
  let rhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] ->
          let r = prim bld (Op.Unary Op.Relu) [ x ] in
          let s = prim bld (Op.Binary Op.Add) [ y; r ] in
          prim bld (Op.Unary Op.Sqr) [ s ]
      | _ -> assert false)
  in
  (match RT.equivalent ~spec:lhs rhs with
  | RT.Rejected _ -> ()
  | r -> Alcotest.failf "probabilistic should reject relu, got %s" (RT.to_string r));
  Alcotest.(check string) "symbolic proves it" "equivalent (exact, symbolic)"
    (Sym.to_string (Sym.equivalent ~spec:lhs rhs))

let test_symbolic_exact_fused_rmsnorm () =
  (* the Fig. 4b fused muGraph proven EXACTLY equivalent to its spec:
     no error probability, unlike the finite-field tests *)
  let spec = Baselines.Templates.rmsnorm_matmul_spec ~b:4 ~h:8 ~d:16 in
  let fused =
    Baselines.Templates.rmsnorm_matmul_fused ~b:4 ~h:8 ~d:16 ~grid:2 ~iters:2
  in
  Alcotest.(check string) "fused rmsnorm proven exactly"
    "equivalent (exact, symbolic)"
    (Sym.to_string (Sym.equivalent ~spec fused))

let test_symbolic_rejects_division_swap () =
  let inputs = [ ("X", [| 2; 2 |]); ("Y", [| 2; 2 |]) ] in
  let lhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] -> prim bld (Op.Binary Op.Div) [ x; y ]
      | _ -> assert false)
  in
  let rhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y ] -> prim bld (Op.Binary Op.Div) [ y; x ]
      | _ -> assert false)
  in
  match Sym.equivalent ~spec:lhs rhs with
  | Sym.Not_equivalent _ -> ()
  | r -> Alcotest.failf "expected rejection, got %s" (Sym.to_string r)

let test_symbolic_size_guard () =
  let inputs = [ ("X", [| 128; 128 |]) ] in
  let g =
    simple_graph ~inputs (fun bld -> function
      | [ x ] -> prim bld (Op.Unary Op.Sqr) [ x ]
      | _ -> assert false)
  in
  match Sym.equivalent ~max_elements:1000 ~spec:g g with
  | Sym.Too_large _ -> ()
  | r -> Alcotest.failf "expected size guard, got %s" (Sym.to_string r)

let test_symbolic_no_cancellation_needed () =
  (* x/y vs (x*z)/(y*z): equal rational functions; cross-multiplication
     proves it with no GCD computation *)
  let inputs = [ ("X", [| 2; 2 |]); ("Y", [| 2; 2 |]); ("Z", [| 2; 2 |]) ] in
  let lhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y; _ ] -> prim bld (Op.Binary Op.Div) [ x; y ]
      | _ -> assert false)
  in
  let rhs =
    simple_graph ~inputs (fun bld -> function
      | [ x; y; z ] ->
          let xz = prim bld (Op.Binary Op.Mul) [ x; z ] in
          let yz = prim bld (Op.Binary Op.Mul) [ y; z ] in
          prim bld (Op.Binary Op.Div) [ xz; yz ]
      | _ -> assert false)
  in
  Alcotest.(check string) "cancellation-free equality"
    "equivalent (exact, symbolic)"
    (Sym.to_string (Sym.equivalent ~spec:lhs rhs))

(* --- packed fast path vs boxed reference path --------------------------- *)

let detail_t =
  Alcotest.testable
    (fun fmt (d : RT.detail) ->
      Format.fprintf fmt "{%s; trials=%d; resamples=%d}"
        (RT.to_string d.RT.result) d.RT.trials_run d.RT.resamples)
    ( = )

(* A mix of accepting and rejecting pairs; the fast path must return the
   verdict AND the trial/resample counts the reference path does. *)
let fast_ref_pairs () =
  let inputs3 = [ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]); ("Z", [| 4; 4 |]) ] in
  let distr_lhs =
    simple_graph ~inputs:inputs3 (fun bld -> function
      | [ x; y; z ] ->
          let s = prim bld (Op.Binary Op.Add) [ x; y ] in
          prim bld (Op.Binary Op.Mul) [ s; z ]
      | _ -> assert false)
  in
  let distr_rhs =
    simple_graph ~inputs:inputs3 (fun bld -> function
      | [ x; y; z ] ->
          let xz = prim bld (Op.Binary Op.Mul) [ x; z ] in
          let yz = prim bld (Op.Binary Op.Mul) [ y; z ] in
          prim bld (Op.Binary Op.Add) [ xz; yz ]
      | _ -> assert false)
  in
  let inputs2 = [ ("X", [| 4; 4 |]); ("Y", [| 4; 4 |]) ] in
  let div_xy =
    simple_graph ~inputs:inputs2 (fun bld -> function
      | [ x; y ] -> prim bld (Op.Binary Op.Div) [ x; y ]
      | _ -> assert false)
  in
  let div_yx =
    simple_graph ~inputs:inputs2 (fun bld -> function
      | [ x; y ] -> prim bld (Op.Binary Op.Div) [ y; x ]
      | _ -> assert false)
  in
  let rms_spec = Baselines.Templates.rmsnorm_matmul_spec ~b:4 ~h:8 ~d:16 in
  let rms_fused =
    Baselines.Templates.rmsnorm_matmul_fused ~b:4 ~h:8 ~d:16 ~grid:2 ~iters:2
  in
  [
    ("distributivity", distr_lhs, distr_rhs);
    ("swapped div", div_xy, div_yx);
    ("fused rmsnorm (sqrt oracle)", rms_spec, rms_fused);
  ]

let test_fast_matches_reference () =
  List.iter
    (fun (name, spec, cand) ->
      List.iter
        (fun seed ->
          let fast = RT.equivalent_detailed ~seed ~fast:true ~spec cand in
          let slow = RT.equivalent_detailed ~seed ~fast:false ~spec cand in
          Alcotest.check detail_t
            (Printf.sprintf "%s (seed %d)" name seed)
            slow fast)
        [ 0x5EED; 1; 42 ])
    (fast_ref_pairs ())

let test_fast_matches_reference_resamples () =
  (* X / (Y - Z) hits zero divisor components often enough (64 elements,
     ~1/227 each) that resampling fires across 20 seeds; both paths must
     resample at exactly the same trials. *)
  let inputs = [ ("X", [| 8; 8 |]); ("Y", [| 8; 8 |]); ("Z", [| 8; 8 |]) ] in
  let mk () =
    simple_graph ~inputs (fun bld -> function
      | [ x; y; z ] ->
          let d = prim bld (Op.Binary Op.Sub) [ y; z ] in
          prim bld (Op.Binary Op.Div) [ x; d ]
      | _ -> assert false)
  in
  let spec = mk () and cand = mk () in
  let total = ref 0 in
  for seed = 0 to 19 do
    let fast = RT.equivalent_detailed ~seed ~fast:true ~spec cand in
    let slow = RT.equivalent_detailed ~seed ~fast:false ~spec cand in
    Alcotest.check detail_t (Printf.sprintf "seed %d" seed) slow fast;
    total := !total + fast.RT.resamples
  done;
  Alcotest.(check bool) "resampling actually exercised" true (!total > 0)

let test_session_spec_cache_hits () =
  let pairs = fast_ref_pairs () in
  let _, spec, cand = List.hd pairs in
  let session = RT.make_session ~spec () in
  let hits_c =
    Obs.Metrics.counter (Obs.Metrics.default ()) "verify.spec_cache.hits"
  in
  let before = Obs.Metrics.value hits_c in
  (* Two candidates against one session: the second reuses every trial
     seed's cached spec outputs. *)
  Alcotest.(check string) "cand 1" "equivalent"
    (RT.to_string (RT.equivalent ~session ~spec cand));
  Alcotest.(check string) "cand 2 (spec vs itself)" "equivalent"
    (RT.to_string (RT.equivalent ~session ~spec spec));
  let hits = Obs.Metrics.value hits_c - before in
  Alcotest.(check bool)
    (Printf.sprintf "spec cache shared across candidates (hits=%d)" hits)
    true (hits > 0)

let test_session_path_selection () =
  let _, spec, cand = List.hd (fast_ref_pairs ()) in
  let fast_s = RT.make_session ~spec () in
  Alcotest.(check bool) "default moduli take the packed path" true
    (RT.session_fast fast_s);
  let ref_s = RT.make_session ~fast:false ~spec () in
  Alcotest.(check bool) "~fast:false forces the boxed path" false
    (RT.session_fast ref_s);
  (* Moduli too large for the 8-bit packed layout silently degrade. *)
  let big_s = RT.make_session ~p:1999 ~q:37 ~spec () in
  Alcotest.(check bool) "p=1999 falls back to the boxed path" false
    (RT.session_fast big_s);
  Alcotest.(check string) "boxed fallback still verifies" "equivalent"
    (RT.to_string (RT.equivalent ~session:big_s ~spec cand))

let () =
  Alcotest.run "verify"
    [
      ( "lax",
        [
          Alcotest.test_case "core ops accepted" `Quick
            test_lax_accepts_core_ops;
          Alcotest.test_case "relu rejected" `Quick test_lax_rejects_relu;
          Alcotest.test_case "one exp per path" `Quick
            test_lax_one_exp_per_path;
        ] );
      ( "positive",
        [
          Alcotest.test_case "identical" `Quick test_accepts_identical;
          Alcotest.test_case "distributivity" `Quick
            test_accepts_distributivity;
          Alcotest.test_case "matmul associativity" `Quick
            test_accepts_matmul_associativity;
          Alcotest.test_case "exp homomorphism" `Quick
            test_accepts_exp_homomorphism;
          Alcotest.test_case "sqrt abstraction" `Quick
            test_accepts_shared_sqrt;
          prop_equivalent_graphs_always_pass;
        ] );
      ( "negative",
        [
          Alcotest.test_case "x+x vs x^2" `Quick
            test_rejects_wrong_constant_structure;
          Alcotest.test_case "row vs column sums" `Quick
            test_rejects_transposed_reduction;
          Alcotest.test_case "swapped division" `Quick
            test_rejects_swapped_div;
          Alcotest.test_case "interface mismatch" `Quick
            test_rejects_interface_mismatch;
        ] );
      ( "theory",
        [
          Alcotest.test_case "larger field" `Quick test_larger_field;
          Alcotest.test_case "Theorem 3 arithmetic" `Quick test_error_bound;
        ] );
      ( "fastpath",
        [
          Alcotest.test_case "fast verdicts match reference" `Quick
            test_fast_matches_reference;
          Alcotest.test_case "resample behavior matches" `Quick
            test_fast_matches_reference_resamples;
          Alcotest.test_case "session spec cache hits" `Quick
            test_session_spec_cache_hits;
          Alcotest.test_case "path selection and fallback" `Quick
            test_session_path_selection;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "relu program proven" `Quick
            test_symbolic_accepts_relu_program;
          Alcotest.test_case "fused rmsnorm proven" `Quick
            test_symbolic_exact_fused_rmsnorm;
          Alcotest.test_case "division swap rejected" `Quick
            test_symbolic_rejects_division_swap;
          Alcotest.test_case "size guard" `Quick test_symbolic_size_guard;
          Alcotest.test_case "no cancellation needed" `Quick
            test_symbolic_no_cancellation_needed;
        ] );
    ]
