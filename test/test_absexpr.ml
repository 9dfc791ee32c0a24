(* Tests for abstract expressions, the A_eq normal form, and the
   subexpression decision procedure (paper §4.3, Table 2). *)

module E = Absexpr.Expr
module Nf = Absexpr.Nf

let x = E.var "x"
let y = E.var "y"
let z = E.var "z"
let g = E.var "g"
let w = E.var "w"

let check_equiv msg a b =
  Alcotest.(check bool) msg true (Nf.equivalent a b)

let check_not_equiv msg a b =
  Alcotest.(check bool) msg false (Nf.equivalent a b)

let check_sub msg a b = Alcotest.(check bool) msg true (Nf.subexpr a b)
let check_not_sub msg a b = Alcotest.(check bool) msg false (Nf.subexpr a b)

(* --- A_eq axioms hold as normal-form equalities ----------------------- *)

let test_ac_laws () =
  check_equiv "add comm" (E.add x y) (E.add y x);
  check_equiv "mul comm" (E.mul x y) (E.mul y x);
  check_equiv "add assoc" (E.add x (E.add y z)) (E.add (E.add x y) z);
  check_equiv "mul assoc" (E.mul x (E.mul y z)) (E.mul (E.mul x y) z)

let test_distributivity () =
  check_equiv "mul over add"
    (E.add (E.mul x z) (E.mul y z))
    (E.mul (E.add x y) z);
  check_equiv "div over add"
    (E.add (E.div x z) (E.div y z))
    (E.div (E.add x y) z)

let test_div_laws () =
  check_equiv "mul of quotient"
    (E.mul x (E.div y z))
    (E.div (E.mul x y) z);
  check_equiv "nested div"
    (E.div (E.div x y) z)
    (E.div x (E.mul y z))

let test_sum_laws () =
  check_equiv "sum 1" (E.sum 1 x) x;
  check_equiv "sum of sum" (E.sum 2 (E.sum 3 x)) (E.sum 6 x);
  check_equiv "sum over add"
    (E.sum 4 (E.add x y))
    (E.add (E.sum 4 x) (E.sum 4 y));
  check_equiv "sum out of mul" (E.sum 4 (E.mul x y)) (E.mul (E.sum 4 x) y);
  check_equiv "sum out of mul (either side)"
    (E.mul (E.sum 4 x) y)
    (E.mul x (E.sum 4 y));
  check_equiv "sum out of div" (E.sum 4 (E.div x y)) (E.div (E.sum 4 x) y)

let test_no_cancellation () =
  (* A_eq deliberately has no cancellation (paper §4.3): (x*y)/y is NOT
     equivalent to x, which is what keeps the subexpression pruning
     meaningful. *)
  check_not_equiv "no mul/div cancellation" (E.div (E.mul x y) y) x;
  check_not_equiv "no add of same term collapse" (E.add x x) x

let test_reduction_sizes_matter () =
  (* sum(4, x) vs sum(8, x): keeping k in the abstraction is crucial
     (paper: Fig. 6 discussion). *)
  check_not_equiv "different sums differ" (E.sum 4 x) (E.sum 8 x);
  check_not_equiv "matmul ks differ"
    (E.matmul ~k:16 x y)
    (E.matmul ~k:32 x y)

let test_exp_opaque () =
  check_not_equiv "exp not homomorphic in A_eq"
    (E.mul (E.exp x) (E.exp y))
    (E.exp (E.add x y));
  check_equiv "exp congruence"
    (E.exp (E.mul x y))
    (E.exp (E.mul y x))

(* --- RMSNorm + MatMul (the paper's §3 case study) --------------------- *)

(* Spec: Z = Matmul(Y, W) with Y = (X*G) / sqrt(sum_h X^2), i.e. division
   before the matmul. *)
let rmsnorm_spec ~h =
  let xg = E.mul x g in
  let rms = E.sqrt (E.sum h (E.sqr x)) in
  E.matmul ~k:h (E.div xg rms) w

(* Mirage's discovered form (Fig. 4b): matmul first (accumulated across
   the for-loop), division in the epilogue. *)
let rmsnorm_fused ~h ~iters =
  let per_iter = E.matmul ~k:(h / iters) (E.mul x g) w in
  let mm = E.sum iters per_iter in
  let rms = E.sqrt (E.sum iters (E.sum (h / iters) (E.sqr x))) in
  E.div mm rms

let test_rmsnorm_equivalence () =
  check_equiv "division commutes with matmul (Fig. 4b)"
    (rmsnorm_spec ~h:64)
    (rmsnorm_fused ~h:64 ~iters:16);
  (* completion compares normal forms with [Nf.equal] *)
  let goal = Nf.of_expr (rmsnorm_spec ~h:64) in
  Alcotest.(check bool) "fused form is complete" true
    (Nf.equal (Nf.of_expr (rmsnorm_fused ~h:64 ~iters:16)) goal);
  Alcotest.(check bool) "prefix is not complete" false
    (Nf.equal (Nf.of_expr (E.mul x g)) goal)

let test_rmsnorm_wrong_split_rejected () =
  check_not_equiv "wrong iteration split changes the reduction size"
    (rmsnorm_spec ~h:64)
    (rmsnorm_fused ~h:32 ~iters:16)

(* --- subexpr --------------------------------------------------------- *)

let test_subexpr_axioms () =
  check_sub "x <= add(x,y)" x (E.add x y);
  check_sub "x <= mul(x,y)" x (E.mul x y);
  check_sub "x <= div(x,y)" x (E.div x y);
  check_sub "y <= div(x,y)" y (E.div x y);
  check_sub "x <= exp(x)" x (E.exp x);
  check_sub "x <= sum(i,x)" x (E.sum 4 x);
  check_sub "x <= sqrt(x)" x (E.sqrt x);
  check_sub "x <= silu(x)" x (E.silu x);
  check_sub "reflexive" (E.add x y) (E.add x y)

let test_subexpr_transitive () =
  (* x*g <= (x*g*w) <= sum(k, x*g*w) <= sum(k,x*g*w)/q *)
  let target = E.div (E.sum 8 (E.mul (E.mul x g) w)) (E.sqrt y) in
  check_sub "x*g" (E.mul x g) target;
  check_sub "sum" (E.sum 8 (E.mul (E.mul x g) w)) target;
  check_sub "inside sqrt" y target

let test_subexpr_modulo_aeq () =
  (* sum(k, x)*y is a subexpression of sum(k, x*y*z) because the sum
     floats across factors under A_eq. *)
  check_sub "sum floats"
    (E.mul (E.sum 4 x) y)
    (E.sum 4 (E.mul (E.mul x y) z));
  (* (x+y) <= (x+y)*z even after distribution. *)
  check_sub "factored sum" (E.add x y) (E.mul (E.add x y) z);
  (* partial sums of distributed products *)
  check_sub "partial term" x (E.add (E.mul x z) (E.mul y z))

let test_subexpr_negative () =
  check_not_sub "x*y not in x+y" (E.mul x y) (E.add x y);
  check_not_sub "z not in x+y" z (E.add x y);
  check_not_sub "sum too large" (E.sum 8 x) (E.sum 4 (E.mul x y));
  (* The pruning example from §4.3: for target X*Z + Y*Z, the prefix X*Y
     must be pruned while X+Y must be kept. *)
  let target = E.add (E.mul x z) (E.mul y z) in
  check_not_sub "X*Y pruned" (E.mul x y) target;
  check_sub "X+Y kept" (E.add x y) target

let test_rmsnorm_prefixes_kept () =
  let goal = rmsnorm_fused ~h:64 ~iters:16 in
  (* Every prefix computed on the way to Fig. 4b must pass the filter. *)
  check_sub "x*g" (E.mul x g) goal;
  check_sub "x^2" (E.sqr x) goal;
  check_sub "sum x^2 (chunk)" (E.sum 4 (E.sqr x)) goal;
  check_sub "accumulated sum x^2" (E.sum 64 (E.sqr x)) goal;
  check_sub "sqrt" (E.sqrt (E.sum 64 (E.sqr x))) goal;
  check_sub "partial matmul" (E.matmul ~k:4 (E.mul x g) w) goal;
  check_sub "accumulated matmul" (E.sum 64 (E.mul (E.mul x g) w)) goal;
  (* Sub-products of a term are always derivable subexpressions
     (subexpr(x, mul(x,y)) composed with the quotient structure), so g*w
     is kept even though no sensible prefix computes it: *)
  check_sub "g*w is (vacuously) derivable" (E.mul g w) goal;
  (* Real garbage is pruned. *)
  check_not_sub "x+g is garbage" (E.add x g) goal;
  check_not_sub "exp(x) is garbage" (E.exp x) goal;
  check_not_sub "x*x*g is garbage" (E.mul (E.sqr x) g) goal

(* --- division-by-quotient and exact-division corner cases -------------- *)

let test_div_by_quotient_confluent () =
  (* div(div(x, y), z) = div(x, mul(y, z)) must hold even when y or z are
     themselves quotients or sums (the D_inv / collapse machinery). *)
  let q = E.div y z in
  check_equiv "div by a quotient, two routes"
    (E.div (E.div x q) w)
    (E.div x (E.mul q w));
  check_equiv "mul pulls div out of divisor"
    (E.div x (E.mul y (E.div z w)))
    (E.div (E.div x y) (E.div z w));
  let s = E.add y z in
  check_equiv "div by sum times atom, two routes"
    (E.div (E.div x s) w)
    (E.div x (E.mul s w));
  check_equiv "div by product of sums"
    (E.div (E.div x s) (E.add w g))
    (E.div x (E.mul s (E.add w g)))

let test_subexpr_through_quotients () =
  (* subexpr(y, div(x, y)) when y is itself structured *)
  check_sub "product divisor" (E.mul y z) (E.div x (E.mul y z));
  check_sub "quotient divisor" (E.div y z) (E.div x (E.div y z));
  check_sub "sum divisor" (E.add y z) (E.div x (E.add y z));
  check_sub "partial den factor" (E.div x y) (E.div x (E.mul y z));
  check_sub "inside nested den" z (E.div x (E.div y z))

let test_exact_division_in_subexpr () =
  (* (x+y) is a subexpression of (x+y)/S for a sum S: requires exact
     polynomial division of the collapsed denominator *)
  let sum_den = E.add w g in
  check_sub "factored across collapsed den"
    (E.div x sum_den)
    (E.div (E.mul x y) sum_den);
  check_not_sub "different sum dens do not divide"
    (E.div x (E.add w x))
    (E.div (E.mul x y) sum_den)

(* The hash reads the whole form: forms that differ only deep inside (a
   variable under twelve exps, a reduction size under them, the last of
   many terms) hash apart, where [Hashtbl.hash], which stops after ten
   meaningful words, cannot tell them apart; equal forms built by
   different routes hash equal. *)
let test_nf_hash_full_depth () =
  let rec nest n e = if n = 0 then e else nest (n - 1) (E.exp e) in
  let terms last =
    List.fold_left E.add last
      (List.init 11 (fun i -> E.var (Printf.sprintf "v%d" i)))
  in
  List.iter
    (fun (name, a, b) ->
      let a = Nf.of_expr a and b = Nf.of_expr b in
      Alcotest.(check bool) (name ^ ": distinct forms") false (Nf.equal a b);
      Alcotest.(check bool)
        (name ^ ": the default hash collides")
        true
        (Hashtbl.hash a = Hashtbl.hash b);
      Alcotest.(check bool) (name ^ ": hash apart") true
        (Nf.hash a <> Nf.hash b);
      let t = Nf.Tbl.create 8 in
      Nf.Tbl.replace t a 1;
      Nf.Tbl.replace t b 2;
      Alcotest.(check (pair int int))
        (name ^ ": two table entries") (1, 2)
        (Nf.Tbl.find t a, Nf.Tbl.find t b))
    [
      ("variable under exps", nest 12 x, nest 12 y);
      ("reduction under exps", nest 12 (E.sum 4 x), nest 12 (E.sum 8 x));
      ("last of many terms", terms (E.var "zz"), terms (E.var "zy"));
    ];
  List.iter
    (fun (name, a, b) ->
      let a = Nf.of_expr a and b = Nf.of_expr b in
      Alcotest.(check bool) (name ^ ": equal forms") true (Nf.equal a b);
      Alcotest.(check int) (name ^ ": equal hashes") (Nf.hash a) (Nf.hash b))
    [
      ("distributed", E.mul (E.add x y) z, E.add (E.mul z y) (E.mul x z));
      ("quotient of quotient", E.div (E.div x y) z, E.div x (E.mul y z));
      ("deep sums", nest 12 (E.sum 2 (E.sum 3 x)), nest 12 (E.sum 6 x));
    ]

let test_nf_to_string_smoke () =
  let nf = Nf.of_expr (E.div (E.sum 4 (E.mul x y)) (E.sqrt z)) in
  let s = Nf.to_string nf in
  Alcotest.(check bool) "mentions sqrt" true
    (Astring_contains.contains s "sqrt");
  Alcotest.(check bool) "mentions the reduction" true
    (Astring_contains.contains s "S4");
  Alcotest.(check int) "single term" 1 (Nf.num_terms nf)

(* --- normal form vs a concrete model of A_eq -------------------------- *)

let expr_gen =
  let open QCheck2.Gen in
  let vars = [ "x"; "y"; "z" ] in
  sized_size (int_range 1 10) @@ fix (fun self n ->
      if n <= 1 then map E.var (oneofl vars)
      else
        frequency
          [
            (2, map E.var (oneofl vars));
            (3, map2 E.add (self (n / 2)) (self (n / 2)));
            (3, map2 E.mul (self (n / 2)) (self (n / 2)));
            (2, map2 E.div (self (n / 2)) (self (n / 2)));
            (1, map E.exp (self (n - 1)));
            (1, map E.sqrt (self (n - 1)));
            (2, map2 (fun i e -> E.sum (i + 1) e) (int_range 1 4) (self (n - 1)));
          ])

let eval_consistent e1 e2 =
  (* If the normal forms are equal, evaluation in a model of A_eq must
     agree (soundness of the normalizer). Try several assignments; skip
     division-by-zero samples. *)
  let modulus = 10007 in
  let agree lookup =
    match
      ( E.eval lookup ~modulus e1,
        E.eval lookup ~modulus e2 )
    with
    | v1, v2 -> v1 = v2
    | exception Absexpr.Zmodel.Division_by_zero -> true
  in
  List.for_all agree
    [
      (fun v -> match v with "x" -> 3 | "y" -> 5 | _ -> 7);
      (fun v -> match v with "x" -> 11 | "y" -> 13 | _ -> 17);
      (fun v -> match v with "x" -> 101 | "y" -> 7 | _ -> 29);
    ]

let prop_normal_form_sound =
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"normal-form equality is sound"
       QCheck2.Gen.(pair expr_gen expr_gen)
       (fun (e1, e2) ->
         if Nf.equivalent e1 e2 then eval_consistent e1 e2 else true))

let prop_self_equiv_under_rewrites =
  (* Applying random A_eq rewrites preserves the normal form. *)
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"A_eq rewrites preserve normal form"
       ~print:E.to_string expr_gen
       (fun e ->
         let rewritten =
           (* A few standard rewrites applied at the root when possible. *)
           match e with
           | E.Add (a, b) -> E.add b a
           | E.Mul (a, b) -> E.mul b a
           | E.Div (E.Div (a, b), c) -> E.div a (E.mul b c)
           | E.Sum (i, E.Mul (a, b)) -> E.mul (E.sum i a) b
           | other -> other
         in
         Nf.equivalent e rewritten))

let prop_input_always_subexpr =
  (* The key lemma of Theorem 1: an operator's input is always a
     subexpression of its output. *)
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"inputs are subexprs of outputs"
       ~print:(fun (a, b) -> E.to_string a ^ " | " ^ E.to_string b)
       QCheck2.Gen.(pair expr_gen expr_gen)
       (fun (a, b) ->
         Nf.subexpr a (E.add a b)
         && Nf.subexpr a (E.mul a b)
         && Nf.subexpr a (E.div a b)
         && Nf.subexpr b (E.div a b)
         && Nf.subexpr a (E.exp a)
         && Nf.subexpr a (E.sum 4 a)))

let prop_subexpr_transitive_via_context =
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"subexpr closed under wrapping"
       ~print:(fun (a, b, c) ->
         E.to_string a ^ " | " ^ E.to_string b ^ " | " ^ E.to_string c)
       QCheck2.Gen.(triple expr_gen expr_gen expr_gen)
       (fun (a, b, c) ->
         (* a <= a*b and a*b <= (a*b)/c imply a <= (a*b)/c *)
         Nf.subexpr a (E.div (E.mul a b) c)))

(* --- the typed comparators against the polymorphic order -------------- *)

(* [Nf.compare] must order normal forms exactly as [Stdlib.compare] did
   when the sorted forms were first built (and printed, hashed and
   stored by): same sign on every pair. Pairs of unrelated forms differ
   at the first term, so the forms also share parts (sums, products,
   quotients and wrappings of the same operands, and a structurally
   equal copy), which reach the atom, denominator and length cases. *)
let prop_compare_matches_stdlib =
  let wrap_gen =
    QCheck2.Gen.(
      map2
        (fun e k ->
          match k with 0 -> E.silu e | 1 -> E.sqr e | _ -> e)
        expr_gen (int_range 0 2))
  in
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"typed compare has Stdlib's sign"
       ~print:(fun (a, b, c) ->
         E.to_string a ^ " | " ^ E.to_string b ^ " | " ^ E.to_string c)
       QCheck2.Gen.(triple wrap_gen wrap_gen wrap_gen)
       (fun (a, b, c) ->
         let forms =
           List.map Nf.of_expr
             [
               a; b; a; E.add a b; E.add a c; E.mul a b; E.mul a c;
               E.div a b; E.div a c; E.div c (E.add a b); E.exp a;
               E.sqrt b; E.silu c; E.sum 2 a; E.sum 4 a;
             ]
         in
         let sign x = Int.compare x 0 in
         List.for_all
           (fun x ->
             List.for_all
               (fun y -> sign (Nf.compare x y) = sign (Stdlib.compare x y))
               forms)
           forms))

(* --- the goal index against the recursive procedure -------------------- *)

(* The recursive procedure the goal index replaced, kept as the
   reference oracle: case (a) against the goal, else the same question
   of every nested argument and every term's reified denominator. *)
let rec oracle n g =
  Nf.equal n g || Nf.quotient_subset n g
  || List.exists
       (fun (t : Nf.term) ->
         List.exists
           (function
             | Nf.A_var _ -> false
             | Nf.A_exp i | Nf.A_sqrt i | Nf.A_silu i -> oracle n i)
           t.Nf.num
         || (not (Nf.den_is_trivial t.Nf.den))
            && oracle n (Nf.reify_den t.Nf.den))
       g

let test_goal_nested_argument () =
  (* x*y is no case-(a) match of exp(x*y) + z, only of its argument *)
  let q = Nf.of_expr (E.mul x y) in
  let goal = Nf.of_expr (E.add (E.exp (E.mul x y)) z) in
  Alcotest.(check bool) "no case-(a) match at the top" false
    (Nf.equal q goal || Nf.quotient_subset q goal);
  Alcotest.(check bool) "oracle accepts" true (oracle q goal);
  Alcotest.(check bool) "index accepts" true (Nf.decide (Nf.goal [ goal ]) q)

let test_goal_reified_denominator () =
  (* x*y occurs only in the opaque denominator of z / (x*y + w) *)
  let q = Nf.of_expr (E.mul x y) in
  let goal = Nf.of_expr (E.div z (E.add (E.mul x y) w)) in
  Alcotest.(check bool) "no case-(a) match at the top" false
    (Nf.equal q goal || Nf.quotient_subset q goal);
  Alcotest.(check bool) "oracle accepts" true (oracle q goal);
  Alcotest.(check bool) "index accepts" true (Nf.decide (Nf.goal [ goal ]) q)

let test_goal_rejects () =
  (* reduction sizes matter, nested or not *)
  let q = Nf.of_expr (E.sum 4 x) in
  let goal =
    Nf.of_expr (E.div (E.mul (E.sum 2 x) y) (E.sqrt (E.add (E.sum 2 x) z)))
  in
  Alcotest.(check bool) "oracle rejects" false (oracle q goal);
  Alcotest.(check bool) "index rejects" false (Nf.decide (Nf.goal [ goal ]) q)

(* The goals of the benchmarks' searches: each LAX piece of the six
   reduced Fig. 7 workloads and each of the 8 serve_mix specs, as the
   list of its outputs' expressions. *)
let bench_goals () =
  let fig7 =
    List.concat_map
      (fun (b : Workloads.Bench_defs.benchmark) ->
        let spec, _ = b.Workloads.Bench_defs.reduced () in
        List.filter_map
          (fun (p : Mirage.Partition.piece) ->
            if p.Mirage.Partition.lax then
              Some
                ( b.Workloads.Bench_defs.name,
                  Mugraph.Abstract.output_exprs p.Mirage.Partition.graph )
            else None)
          (Mirage.Partition.partition spec).Mirage.Partition.pieces)
      (Workloads.Bench_defs.all ())
  in
  let open Baselines.Templates in
  let serve =
    List.map
      (fun (name, spec) -> (name, Mugraph.Abstract.output_exprs spec))
      [
        ("rmsnorm 4x8x16", rmsnorm_matmul_spec ~b:4 ~h:8 ~d:16);
        ("gatedmlp 2x4x16", gated_mlp_spec ~b:2 ~h:4 ~f:16);
        ("gatedmlp 4x16x32", gated_mlp_spec ~b:4 ~h:16 ~f:32);
        ("ntrans 2x16", ntrans_spec ~b:2 ~d:16);
        ("rmsnorm 2x4x16", rmsnorm_matmul_spec ~b:2 ~h:4 ~d:16);
        ("rmsnorm 2x8x8", rmsnorm_matmul_spec ~b:2 ~h:8 ~d:8);
        ("gatedmlp 4x8x16", gated_mlp_spec ~b:4 ~h:8 ~f:16);
        ("ntrans 4x32", ntrans_spec ~b:4 ~d:32);
      ]
  in
  fig7 @ serve

let rec subterms e =
  e
  ::
  (match e with
  | E.Var _ -> []
  | E.Add (a, b) | E.Mul (a, b) | E.Div (a, b) -> subterms a @ subterms b
  | E.Exp a | E.Sqrt a | E.Silu a | E.Sum (_, a) -> subterms a)

(* [expr_gen]'s variables renamed to a goal's inputs, so its terms
   share the goal's atoms. *)
let rec rename names e =
  let n = Array.length names in
  match e with
  | E.Var "x" -> E.var names.(0)
  | E.Var "y" -> E.var names.(1 mod n)
  | E.Var _ -> E.var names.(2 mod n)
  | E.Add (a, b) -> E.add (rename names a) (rename names b)
  | E.Mul (a, b) -> E.mul (rename names a) (rename names b)
  | E.Div (a, b) -> E.div (rename names a) (rename names b)
  | E.Exp a -> E.exp (rename names a)
  | E.Sqrt a -> E.sqrt (rename names a)
  | E.Silu a -> E.silu (rename names a)
  | E.Sum (i, a) -> E.sum i (rename names a)

let rec vars acc = function
  | E.Var v -> if List.mem v acc then acc else v :: acc
  | E.Add (a, b) | E.Mul (a, b) | E.Div (a, b) -> vars (vars acc a) b
  | E.Exp a | E.Sqrt a | E.Silu a | E.Sum (_, a) -> vars acc a

(* For every benchmark goal set, the index answers as the oracle does
   on every subterm of its goals, on products, quotients, sums and
   reductions of pairs of them, and on generated terms over its inputs
   (a fixed seed, so the suite stays deterministic); and so does
   [is_subexpr] against each goal alone. *)
let test_goal_index_agrees () =
  let rand = Random.State.make [| 20 |] in
  let accepted = ref 0 and rejected = ref 0 in
  List.iter
    (fun (name, exprs) ->
      let goals = List.map Nf.of_expr exprs in
      let index = Nf.goal goals in
      let subs =
        List.sort_uniq Nf.compare
          (List.map Nf.of_expr (List.concat_map subterms exprs))
      in
      let few = List.filteri (fun i _ -> i < 16) subs in
      let pairs =
        List.concat_map
          (fun a ->
            List.concat_map
              (fun b ->
                [ Nf.nf_mul a b; Nf.nf_div a b; Nf.nf_add a b; Nf.nf_sum 2 a ])
              few)
          few
      in
      let names = Array.of_list (List.rev (List.fold_left vars [] exprs)) in
      let generated =
        List.map
          (fun e -> Nf.of_expr (rename names e))
          (QCheck2.Gen.generate ~rand ~n:200 expr_gen)
      in
      List.iter
        (fun n ->
          let want = List.exists (oracle n) goals in
          if want then incr accepted else incr rejected;
          if Nf.decide index n <> want then
            Alcotest.failf "%s: index says %b, oracle %b, for %s" name
              (not want) want (Nf.to_string n);
          List.iter
            (fun g ->
              if Nf.is_subexpr n g <> oracle n g then
                Alcotest.failf "%s: is_subexpr disagrees with the oracle on %s"
                  name (Nf.to_string n))
            goals)
        (subs @ pairs @ generated))
    (bench_goals ());
  Alcotest.(check bool)
    (Printf.sprintf "both verdicts exercised (%d accepted, %d rejected)"
       !accepted !rejected)
    true
    (!accepted > 0 && !rejected > 0)

(* --- solver cache ------------------------------------------------------ *)

let test_solver_cache () =
  let goal = rmsnorm_fused ~h:64 ~iters:16 in
  let solver = Smtlite.Solver.create ~target:[ goal ] in
  let front = Smtlite.Solver.front solver 0 in
  let check e = Smtlite.Solver.check_front front (Nf.of_expr e) in
  Alcotest.(check bool) "accepts prefix" true (check (E.mul x g));
  Alcotest.(check bool) "accepts prefix again" true (check (E.mul g x));
  Alcotest.(check int) "counts held back until the flush" 0
    (Smtlite.Solver.stats solver).Smtlite.Solver.queries;
  Smtlite.Solver.flush_front front;
  let st = Smtlite.Solver.stats solver in
  Alcotest.(check int) "2 queries" 2 st.Smtlite.Solver.queries;
  (* mul x g and mul g x normalize identically: second query hits cache. *)
  Alcotest.(check int) "1 hit" 1 st.Smtlite.Solver.cache_hits;
  Alcotest.(check bool) "rejects garbage" false (check (E.exp x));
  Smtlite.Solver.reset_stats solver;
  Alcotest.(check int) "reset" 0 (Smtlite.Solver.stats solver).Smtlite.Solver.queries

let test_solver_equiv_target () =
  (* A solver's goal set is its targets' normal forms: A_eq-equivalent
     targets decide every query alike, a prefix of the target does not. *)
  let verdicts target =
    let front = Smtlite.Solver.front (Smtlite.Solver.create ~target) 0 in
    List.map
      (fun e -> Smtlite.Solver.check_front front (Nf.of_expr e))
      [
        E.mul x g;
        E.mul x x;
        E.exp x;
        rmsnorm_spec ~h:64;
        rmsnorm_fused ~h:64 ~iters:16;
      ]
  in
  let goal = verdicts [ rmsnorm_spec ~h:64 ] in
  Alcotest.(check (list bool)) "fused form is the same target" goal
    (verdicts [ rmsnorm_fused ~h:64 ~iters:16 ]);
  Alcotest.(check bool) "prefix is another target" false
    (goal = verdicts [ E.mul x g ]);
  Alcotest.(check (list bool)) "goal order does not matter"
    (verdicts [ E.mul x g; rmsnorm_spec ~h:64 ])
    (verdicts [ rmsnorm_fused ~h:64 ~iters:16; E.mul g x ])

let () =
  Alcotest.run "absexpr"
    [
      ( "a_eq",
        [
          Alcotest.test_case "AC laws" `Quick test_ac_laws;
          Alcotest.test_case "distributivity" `Quick test_distributivity;
          Alcotest.test_case "division laws" `Quick test_div_laws;
          Alcotest.test_case "sum laws" `Quick test_sum_laws;
          Alcotest.test_case "no cancellation" `Quick test_no_cancellation;
          Alcotest.test_case "reduction sizes matter" `Quick
            test_reduction_sizes_matter;
          Alcotest.test_case "exp opaque" `Quick test_exp_opaque;
          Alcotest.test_case "rmsnorm equivalence" `Quick
            test_rmsnorm_equivalence;
          Alcotest.test_case "rmsnorm wrong split" `Quick
            test_rmsnorm_wrong_split_rejected;
          prop_normal_form_sound;
          prop_self_equiv_under_rewrites;
        ] );
      ( "subexpr",
        [
          Alcotest.test_case "A_sub axioms" `Quick test_subexpr_axioms;
          Alcotest.test_case "transitivity" `Quick test_subexpr_transitive;
          Alcotest.test_case "modulo A_eq" `Quick test_subexpr_modulo_aeq;
          Alcotest.test_case "negative cases" `Quick test_subexpr_negative;
          Alcotest.test_case "rmsnorm prefixes kept" `Quick
            test_rmsnorm_prefixes_kept;
          prop_input_always_subexpr;
          prop_subexpr_transitive_via_context;
          Alcotest.test_case "div-by-quotient confluence" `Quick
            test_div_by_quotient_confluent;
          Alcotest.test_case "subexpr through quotients" `Quick
            test_subexpr_through_quotients;
          Alcotest.test_case "exact division" `Quick
            test_exact_division_in_subexpr;
          Alcotest.test_case "nf printing" `Quick test_nf_to_string_smoke;
          Alcotest.test_case "full-depth hash" `Quick test_nf_hash_full_depth;
          prop_compare_matches_stdlib;
        ] );
      ( "goal index",
        [
          Alcotest.test_case "through a nested argument" `Quick
            test_goal_nested_argument;
          Alcotest.test_case "through a reified denominator" `Quick
            test_goal_reified_denominator;
          Alcotest.test_case "rejects a near miss" `Quick test_goal_rejects;
          Alcotest.test_case "agrees with the recursion on benchmark goals"
            `Quick test_goal_index_agrees;
        ] );
      ( "solver",
        [
          Alcotest.test_case "cache" `Quick test_solver_cache;
          Alcotest.test_case "equiv target" `Quick test_solver_equiv_target;
        ] );
    ]
