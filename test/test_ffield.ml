(* Tests for the finite-field substrate: Z_p arithmetic, roots of unity,
   and the Z_p x Z_q product domain of paper Table 3. *)

open Ffield

let seed = [| 0xC0FFEE |]

let qcheck ?(count = 200) name gen prop =
  Qseed.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Zmod ------------------------------------------------------------ *)

let test_normalize () =
  Alcotest.(check int) "positive" 3 (Zmod.normalize ~modulus:7 10);
  Alcotest.(check int) "negative" 4 (Zmod.normalize ~modulus:7 (-10));
  Alcotest.(check int) "zero" 0 (Zmod.normalize ~modulus:7 0);
  Alcotest.(check int) "exact" 0 (Zmod.normalize ~modulus:7 7)

let test_pow () =
  Alcotest.(check int) "2^10 mod 227" (1024 mod 227) (Zmod.pow ~modulus:227 2 10);
  Alcotest.(check int) "x^0" 1 (Zmod.pow ~modulus:227 5 0);
  (* Fermat: x^(p-1) = 1 *)
  for x = 1 to 226 do
    Alcotest.(check int) "fermat" 1 (Zmod.pow ~modulus:227 x 226)
  done

let test_inv () =
  for x = 1 to 112 do
    let i = Zmod.inv ~modulus:113 x in
    Alcotest.(check int) "x * x^-1 = 1" 1 (Zmod.mul ~modulus:113 x i)
  done;
  Alcotest.check_raises "inv 0" Zmod.Division_by_zero (fun () ->
      ignore (Zmod.inv ~modulus:113 0))

let test_is_prime () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check bool) (string_of_int n) expected (Zmod.is_prime n))
    [ (1, false); (2, true); (3, true); (4, false); (113, true); (227, true);
      (221, false); (0, false); (-5, false); (97, true); (91, false) ]

let test_default_primes () =
  (* The paper's implementation choice: largest p*q < 2^16, q | p - 1. *)
  Alcotest.(check bool) "p prime" true (Zmod.is_prime Zmod.default_p);
  Alcotest.(check bool) "q prime" true (Zmod.is_prime Zmod.default_q);
  Alcotest.(check int) "q | p-1" 0 ((Zmod.default_p - 1) mod Zmod.default_q);
  Alcotest.(check bool) "p*q < 2^16" true
    (Zmod.default_p * Zmod.default_q < 65536)

let test_roots_of_unity () =
  let roots = Zmod.roots_of_unity ~p:227 ~q:113 in
  Alcotest.(check int) "count" 113 (List.length roots);
  List.iter
    (fun w ->
      Alcotest.(check int) "w^q = 1" 1 (Zmod.pow ~modulus:227 w 113))
    roots;
  (* Roots are distinct. *)
  let sorted = List.sort_uniq Stdlib.compare roots in
  Alcotest.(check int) "distinct" 113 (List.length sorted)

let test_random_root () =
  let st = Random.State.make seed in
  for _ = 1 to 50 do
    let w = Zmod.random_root_of_unity ~p:227 ~q:113 st in
    Alcotest.(check int) "w^q = 1" 1 (Zmod.pow ~modulus:227 w 113)
  done

let test_primitive_root () =
  let g = Zmod.primitive_root ~modulus:227 in
  (* Order of g must be exactly 226 = 2 * 113. *)
  Alcotest.(check bool) "g^113 <> 1" true (Zmod.pow ~modulus:227 g 113 <> 1);
  Alcotest.(check bool) "g^2 <> 1" true (Zmod.pow ~modulus:227 g 2 <> 1);
  Alcotest.(check int) "g^226 = 1" 1 (Zmod.pow ~modulus:227 g 226)

let test_sqrt_opt () =
  let p = 113 in
  for x = 0 to p - 1 do
    match Zmod.sqrt_opt ~modulus:p x with
    | Some r -> Alcotest.(check int) "r*r = x" x (Zmod.mul ~modulus:p r r)
    | None ->
        (* x must be a non-residue: x^((p-1)/2) <> 1 *)
        Alcotest.(check bool) "non-residue" true
          (Zmod.pow ~modulus:p x ((p - 1) / 2) <> 1)
  done

let prop_add_assoc =
  qcheck "zmod add associative"
    QCheck2.Gen.(triple (int_range 0 226) (int_range 0 226) (int_range 0 226))
    (fun (a, b, c) ->
      let m = 227 in
      Zmod.add ~modulus:m a (Zmod.add ~modulus:m b c)
      = Zmod.add ~modulus:m (Zmod.add ~modulus:m a b) c)

let prop_mul_distrib =
  qcheck "zmod mul distributes over add"
    QCheck2.Gen.(triple (int_range 0 226) (int_range 0 226) (int_range 0 226))
    (fun (a, b, c) ->
      let m = 227 in
      Zmod.mul ~modulus:m a (Zmod.add ~modulus:m b c)
      = Zmod.add ~modulus:m (Zmod.mul ~modulus:m a b) (Zmod.mul ~modulus:m a c))

let prop_div_mul =
  qcheck "zmod div then mul roundtrips"
    QCheck2.Gen.(pair (int_range 0 226) (int_range 1 226))
    (fun (a, b) ->
      let m = 227 in
      Zmod.mul ~modulus:m (Zmod.div ~modulus:m a b) b = Zmod.normalize ~modulus:m a)

(* --- Fpair ----------------------------------------------------------- *)

let ctx () =
  let st = Random.State.make seed in
  Fpair.random_ctx st

let test_fpair_ring () =
  let c = ctx () in
  let a = Fpair.of_int c 42 and b = Fpair.of_int c 17 in
  Alcotest.(check bool) "add comm" true
    (Fpair.equal (Fpair.add c a b) (Fpair.add c b a));
  Alcotest.(check bool) "mul comm" true
    (Fpair.equal (Fpair.mul c a b) (Fpair.mul c b a));
  Alcotest.(check bool) "a - a = 0" true
    (Fpair.equal (Fpair.sub c a a) Fpair.zero);
  Alcotest.(check bool) "a * 1 = a" true
    (Fpair.equal (Fpair.mul c a Fpair.one) a);
  Alcotest.(check bool) "a / a = 1" true
    (Fpair.equal (Fpair.div c a a) Fpair.one)

let test_fpair_exp_homomorphism () =
  (* exp(x) * exp(y) agrees with exp(x + y) on the Z_p component: this is
     the identity e^x e^y = e^{x+y} realized via omega^x omega^y =
     omega^{x+y}, the property Theorem 2 relies on. *)
  let c = ctx () in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 100 do
    let x = Fpair.random c st and y = Fpair.random c st in
    let lhs = Fpair.mul c (Fpair.exp c x) (Fpair.exp c y) in
    let rhs = Fpair.exp c (Fpair.add c x y) in
    Alcotest.(check int) "Z_p components equal" rhs.Fpair.vp lhs.Fpair.vp
  done

let test_fpair_exp_consumes_q () =
  let c = ctx () in
  let x = Fpair.of_int c 5 in
  let e = Fpair.exp c x in
  Alcotest.(check bool) "q component gone" true (e.Fpair.vq = None);
  Alcotest.check_raises "second exp is non-LAX" Fpair.Not_lax (fun () ->
      ignore (Fpair.exp c e))

let test_fpair_div_by_zero () =
  let c = ctx () in
  Alcotest.check_raises "div by zero" Zmod.Division_by_zero (fun () ->
      ignore (Fpair.div c Fpair.one Fpair.zero))

let test_fpair_unsupported () =
  let c = ctx () in
  (match Fpair.sqrt c Fpair.one with
  | exception Fpair.Unsupported _ -> ()
  | _ -> Alcotest.fail "sqrt should be unsupported");
  match Fpair.silu c Fpair.one with
  | exception Fpair.Unsupported _ -> ()
  | _ -> Alcotest.fail "silu should be unsupported"

let test_make_ctx_validation () =
  (match Fpair.make_ctx ~p:10 ~q:3 ~omega:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p=10 should be rejected");
  (match Fpair.make_ctx ~p:227 ~q:7 ~omega:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q=7 (not dividing 226) should be rejected");
  match Fpair.make_ctx ~omega:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "omega=2 is not a 113th root of unity"

let prop_fpair_distrib =
  let c = Lazy.from_fun ctx in
  qcheck "fpair distributivity"
    QCheck2.Gen.(triple small_nat small_nat small_nat)
    (fun (a, b, d) ->
      let c = Lazy.force c in
      let a = Fpair.of_int c a and b = Fpair.of_int c b and d = Fpair.of_int c d in
      Fpair.equal
        (Fpair.mul c a (Fpair.add c b d))
        (Fpair.add c (Fpair.mul c a b) (Fpair.mul c a d)))

(* --- Fpacked --------------------------------------------------------- *)

(* One omega shared by a boxed and a packed context so the two
   representations are value-comparable. *)
let both_ctx () =
  let st = Random.State.make seed in
  let omega = Zmod.random_root_of_unity ~p:227 ~q:113 st in
  (Fpair.make_ctx ~omega (), Fpacked.make_ctx ~omega ())

let test_packable () =
  Alcotest.(check bool) "defaults" true (Fpacked.packable ~p:227 ~q:113);
  Alcotest.(check bool) "large p" false (Fpacked.packable ~p:1999 ~q:113);
  Alcotest.(check bool) "large q" false (Fpacked.packable ~p:227 ~q:409);
  Alcotest.(check bool) "degenerate" false (Fpacked.packable ~p:1 ~q:1)

(* Every (a, b) pair of both fields at once: the packed ops must agree
   with scalar Zmod arithmetic componentwise. 227^2 pairs cover the
   q-component too (values are taken mod 113). *)
let test_packed_exhaustive_componentwise () =
  let _, c = both_ctx () in
  for a = 0 to 226 do
    for b = 0 to 226 do
      let aq = a mod 113 and bq = b mod 113 in
      let x = Fpacked.pack a aq and y = Fpacked.pack b bq in
      let check name op zop =
        let r = op c x y in
        Alcotest.(check int)
          (Printf.sprintf "%s vp %d %d" name a b)
          (zop ~modulus:227 a b) (Fpacked.vp r);
        Alcotest.(check int)
          (Printf.sprintf "%s vq %d %d" name a b)
          (zop ~modulus:113 aq bq) (Fpacked.vq r)
      in
      check "add" Fpacked.add Zmod.add;
      check "sub" Fpacked.sub Zmod.sub;
      check "mul" Fpacked.mul Zmod.mul;
      if b <> 0 && bq <> 0 then check "div" Fpacked.div Zmod.div
    done
  done

let test_packed_div_by_zero () =
  let _, c = both_ctx () in
  Alcotest.check_raises "zero Z_p divisor" Zmod.Division_by_zero (fun () ->
      ignore (Fpacked.div c Fpacked.one (Fpacked.pack 0 5)));
  Alcotest.check_raises "zero Z_q divisor, both carry q"
    Zmod.Division_by_zero (fun () ->
      ignore (Fpacked.div c Fpacked.one (Fpacked.pack 5 0)));
  (* A consumed Z_q component skips the q division entirely. *)
  let r = Fpacked.div c (Fpacked.without_q 10) (Fpacked.pack 5 0) in
  Alcotest.(check int) "p division still happens" (Zmod.div ~modulus:227 10 5)
    (Fpacked.vp r);
  Alcotest.(check bool) "result has no q" false (Fpacked.has_q r)

let test_packed_exp_table () =
  let bc, c = both_ctx () in
  for v = 0 to 112 do
    let packed = Fpacked.exp c (Fpacked.pack 7 v) in
    let boxed = Fpair.exp bc { Fpair.vp = 7; vq = Some v } in
    Alcotest.(check int)
      (Printf.sprintf "omega^%d" v)
      boxed.Fpair.vp (Fpacked.vp packed);
    Alcotest.(check bool) "q consumed" false (Fpacked.has_q packed)
  done;
  Alcotest.check_raises "second exp is non-LAX" Fpair.Not_lax (fun () ->
      ignore (Fpacked.exp c (Fpacked.exp c Fpacked.one)))

let test_packed_equal_semantics () =
  Alcotest.(check bool) "q ignored when one side consumed" true
    (Fpacked.equal (Fpacked.pack 5 7) (Fpacked.without_q 5));
  Alcotest.(check bool) "q compared when both carry it" false
    (Fpacked.equal (Fpacked.pack 5 7) (Fpacked.pack 5 8));
  Alcotest.(check bool) "p always compared" false
    (Fpacked.equal (Fpacked.without_q 5) (Fpacked.without_q 6))

(* A packed/boxed value generator covering consumed-q values too. *)
let gen_pair_value =
  QCheck2.Gen.(
    map2
      (fun vp vq -> { Fpair.vp; vq })
      (int_range 0 226)
      (oneof [ map (fun v -> Some v) (int_range 0 112); return None ]))

let prop_packed_matches_fpair =
  let cs = Lazy.from_fun both_ctx in
  qcheck ~count:500 "packed ops = boxed ops through of_fpair/to_fpair"
    QCheck2.Gen.(pair gen_pair_value gen_pair_value)
    (fun (a, b) ->
      let bc, c = Lazy.force cs in
      let pa = Fpacked.of_fpair a and pb = Fpacked.of_fpair b in
      let same op pop =
        let boxed = try Ok (op bc a b) with e -> Error e in
        let packed =
          try Ok (Fpacked.to_fpair (pop c pa pb)) with e -> Error e
        in
        match boxed, packed with
        | Ok x, Ok y ->
            x.Fpair.vp = y.Fpair.vp
            && (match x.Fpair.vq, y.Fpair.vq with
               | Some u, Some v -> u = v
               | None, None -> true
               | _ -> false)
        | Error x, Error y -> x = y
        | _ -> false
      in
      same Fpair.add Fpacked.add
      && same Fpair.sub Fpacked.sub
      && same Fpair.mul Fpacked.mul
      && same Fpair.div Fpacked.div
      && same (fun c x _ -> Fpair.exp c x) (fun c x _ -> Fpacked.exp c x)
      &&
      (* Fpair has no pow; check componentwise against Zmod. *)
      let r = Fpacked.pow c pa 5 in
      Fpacked.vp r = Zmod.pow ~modulus:227 a.Fpair.vp 5
      &&
      match a.Fpair.vq with
      | Some v ->
          Fpacked.has_q r && Fpacked.vq r = Zmod.pow ~modulus:113 v 5
      | None -> not (Fpacked.has_q r))

let prop_packed_roundtrip =
  qcheck "of_fpair/to_fpair roundtrips" gen_pair_value (fun v ->
      let v' = Fpacked.to_fpair (Fpacked.of_fpair v) in
      v'.Fpair.vp = v.Fpair.vp && v'.Fpair.vq = v.Fpair.vq)

let test_packed_random_stream () =
  (* Same RNG consumption order: a shared seed yields identical values. *)
  let bc, c = both_ctx () in
  let s1 = Random.State.make [| 11 |] and s2 = Random.State.make [| 11 |] in
  for _ = 1 to 200 do
    let boxed = Fpair.random bc s1 and packed = Fpacked.random c s2 in
    Alcotest.(check int) "vp" boxed.Fpair.vp (Fpacked.vp packed);
    Alcotest.(check int) "vq"
      (Option.get boxed.Fpair.vq)
      (Fpacked.vq packed)
  done

(* The monomorphic matmul kernel against the generic fold over the boxed
   representation, across batched/broadcast shapes and consumed-q values
   (what [Dense.matmul] dispatches on the repr witness). *)
let prop_packed_matmul_kernel =
  let cs = Lazy.from_fun both_ctx in
  let gen =
    QCheck2.Gen.(
      pair
        (pair (int_range 1 3) (int_range 1 4))
        (pair (pair (int_range 1 5) (int_range 1 4)) (int_range 0 1000)))
  in
  qcheck ~count:100 "packed Dense.matmul = boxed Dense.matmul" gen
    (fun ((batch, m), ((k, n), s)) ->
      let bc, c = Lazy.force cs in
      let st = Random.State.make [| s |] in
      let mk shape =
        let numel = Array.fold_left ( * ) 1 shape in
        Array.init numel (fun _ ->
            let v = Fpair.random bc st in
            (* Sprinkle consumed-q values to exercise flag propagation. *)
            if Random.State.int st 10 = 0 then
              { v with Fpair.vq = None }
            else v)
      in
      let a_raw = mk [| batch; m; k |] and b_raw = mk [| k; n |] in
      let boxed =
        Tensor.Dense.matmul
          (Tensor.Element.fpair_ops bc)
          (Tensor.Dense.create [| batch; m; k |] a_raw)
          (Tensor.Dense.create [| k; n |] b_raw)
      in
      let packed =
        Tensor.Dense.matmul
          (Tensor.Element.fpacked_ops c)
          (Tensor.Dense.create [| batch; m; k |]
             (Array.map Fpacked.of_fpair a_raw))
          (Tensor.Dense.create [| k; n |] (Array.map Fpacked.of_fpair b_raw))
      in
      Tensor.Shape.equal
        (Tensor.Dense.shape boxed)
        (Tensor.Dense.shape packed)
      &&
      let ok = ref true in
      for i = 0 to Tensor.Dense.numel boxed - 1 do
        if
          not
            (Fpair.equal
               (Tensor.Dense.get_linear boxed i)
               (Fpacked.to_fpair (Tensor.Dense.get_linear packed i)))
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "ffield"
    [
      ( "zmod",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "inv" `Quick test_inv;
          Alcotest.test_case "is_prime" `Quick test_is_prime;
          Alcotest.test_case "default primes" `Quick test_default_primes;
          Alcotest.test_case "roots of unity" `Quick test_roots_of_unity;
          Alcotest.test_case "random root" `Quick test_random_root;
          Alcotest.test_case "primitive root" `Quick test_primitive_root;
          Alcotest.test_case "tonelli-shanks" `Quick test_sqrt_opt;
          prop_add_assoc;
          prop_mul_distrib;
          prop_div_mul;
        ] );
      ( "fpair",
        [
          Alcotest.test_case "ring laws" `Quick test_fpair_ring;
          Alcotest.test_case "exp homomorphism" `Quick
            test_fpair_exp_homomorphism;
          Alcotest.test_case "exp consumes Z_q" `Quick
            test_fpair_exp_consumes_q;
          Alcotest.test_case "division by zero" `Quick test_fpair_div_by_zero;
          Alcotest.test_case "sqrt/silu unsupported" `Quick
            test_fpair_unsupported;
          Alcotest.test_case "ctx validation" `Quick test_make_ctx_validation;
          prop_fpair_distrib;
        ] );
      ( "fpacked",
        [
          Alcotest.test_case "packable" `Quick test_packable;
          Alcotest.test_case "exhaustive componentwise vs Zmod" `Quick
            test_packed_exhaustive_componentwise;
          Alcotest.test_case "division by zero" `Quick test_packed_div_by_zero;
          Alcotest.test_case "exp table" `Quick test_packed_exp_table;
          Alcotest.test_case "equal semantics" `Quick
            test_packed_equal_semantics;
          Alcotest.test_case "random stream parity" `Quick
            test_packed_random_stream;
          prop_packed_matches_fpair;
          prop_packed_roundtrip;
          prop_packed_matmul_kernel;
        ] );
    ]
