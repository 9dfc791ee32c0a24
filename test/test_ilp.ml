(* Tests for the 0-1 ILP solver (the Z3 stand-in for layout selection),
   including a brute-force cross-check on random instances. *)

let qcheck ?(count = 100) name gen prop =
  Qseed.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_trivial () =
  let p = Ilp.create () in
  let x = Ilp.new_var ~name:"x" p in
  Ilp.set_objective p [ (1.0, x) ];
  match Ilp.solve_opt p with
  | Some sol ->
      Alcotest.(check bool) "x=0 minimizes" false (Ilp.value sol x);
      Alcotest.(check (float 1e-9)) "objective" 0.0 sol.Ilp.objective
  | None -> Alcotest.fail "feasible problem reported infeasible"

let test_exactly_one () =
  let p = Ilp.create () in
  let a = Ilp.new_var p and b = Ilp.new_var p and c = Ilp.new_var p in
  Ilp.add_exactly_one p [ a; b; c ];
  Ilp.set_objective p [ (3.0, a); (1.0, b); (2.0, c) ];
  match Ilp.solve_opt p with
  | Some sol ->
      Alcotest.(check bool) "picks b" true (Ilp.value sol b);
      Alcotest.(check bool) "not a" false (Ilp.value sol a);
      Alcotest.(check (float 1e-9)) "objective" 1.0 sol.Ilp.objective
  | None -> Alcotest.fail "infeasible"

let test_implies () =
  let p = Ilp.create () in
  let a = Ilp.new_var p and b = Ilp.new_var p in
  Ilp.add_implies p a b;
  Ilp.add_ge p [ (1, a) ] 1;
  (* force a = 1 *)
  Ilp.set_objective p [ (5.0, b) ];
  match Ilp.solve_opt p with
  | Some sol ->
      Alcotest.(check bool) "a" true (Ilp.value sol a);
      Alcotest.(check bool) "b forced" true (Ilp.value sol b)
  | None -> Alcotest.fail "infeasible"

let test_infeasible () =
  let p = Ilp.create () in
  let a = Ilp.new_var p in
  Ilp.add_ge p [ (1, a) ] 1;
  Ilp.add_le p [ (1, a) ] 0;
  Alcotest.(check bool) "infeasible" true (Ilp.solve p = Ilp.Infeasible);
  Alcotest.(check bool) "solve_opt agrees" true (Ilp.solve_opt p = None)

let test_forbid_pair () =
  let p = Ilp.create () in
  let a = Ilp.new_var p and b = Ilp.new_var p in
  Ilp.add_forbid_pair p a b;
  Ilp.add_ge p [ (1, a); (1, b) ] 1;
  Ilp.set_objective p [ (-1.0, a); (-2.0, b) ];
  (* wants both at 1, but the pair is forbidden: picks b *)
  match Ilp.solve_opt p with
  | Some sol ->
      Alcotest.(check bool) "b" true (Ilp.value sol b);
      Alcotest.(check bool) "not a" false (Ilp.value sol a)
  | None -> Alcotest.fail "infeasible"

let test_negative_objective () =
  let p = Ilp.create () in
  let a = Ilp.new_var p and b = Ilp.new_var p in
  Ilp.set_objective p [ (-1.0, a); (2.0, b) ];
  match Ilp.solve_opt p with
  | Some sol ->
      Alcotest.(check bool) "a on" true (Ilp.value sol a);
      Alcotest.(check bool) "b off" false (Ilp.value sol b);
      Alcotest.(check (float 1e-9)) "objective" (-1.0) sol.Ilp.objective
  | None -> Alcotest.fail "infeasible"

(* random instances cross-checked against brute force *)
let instance_gen =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* n_cons = int_range 0 4 in
    let* cons =
      list_repeat n_cons
        (let* coeffs = list_repeat n (int_range (-3) 3) in
         let* bound = int_range (-3) 5 in
         return (coeffs, bound))
    in
    let* obj = list_repeat n (float_range (-4.0) 4.0) in
    return (n, cons, obj))

let brute_force n cons obj =
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let value v = if mask land (1 lsl v) <> 0 then 1 else 0 in
    let feasible =
      List.for_all
        (fun (coeffs, bound) ->
          List.fold_left ( + ) 0 (List.mapi (fun v c -> c * value v) coeffs)
          <= bound)
        cons
    in
    if feasible then begin
      let o =
        List.fold_left ( +. ) 0.0
          (List.mapi (fun v c -> c *. float_of_int (value v)) obj)
      in
      match !best with
      | Some b when b <= o -> ()
      | _ -> best := Some o
    end
  done;
  !best

let prop_matches_brute_force =
  qcheck ~count:300 "B&B matches brute force" instance_gen
    (fun (n, cons, obj) ->
      let p = Ilp.create () in
      let vars = List.init n (fun _ -> Ilp.new_var p) in
      List.iter
        (fun (coeffs, bound) ->
          Ilp.add_le p (List.map2 (fun c v -> (c, v)) coeffs vars) bound)
        cons;
      Ilp.set_objective p (List.map2 (fun c v -> (c, v)) obj vars);
      let expected = brute_force n cons obj in
      match Ilp.solve_opt p, expected with
      | None, None -> true
      | Some sol, Some o -> Float.abs (sol.Ilp.objective -. o) < 1e-6
      | Some _, None | None, Some _ -> false)

let () =
  Alcotest.run "ilp"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "exactly one" `Quick test_exactly_one;
          Alcotest.test_case "implies" `Quick test_implies;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "forbid pair" `Quick test_forbid_pair;
          Alcotest.test_case "negative objective" `Quick
            test_negative_objective;
          prop_matches_brute_force;
        ] );
    ]
