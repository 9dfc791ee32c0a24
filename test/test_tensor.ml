(* Tests for shapes, layouts and the generic dense tensor substrate. *)

open Tensor

let fops = Element.float_ops

let qcheck ?(count = 100) name gen prop =
  Qseed.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let float_t = Alcotest.float 1e-9

let check_tensor msg expected actual =
  Alcotest.(check bool)
    msg true
    (Dense.equal (fun a b -> Element.float_approx_equal a b) expected actual)

(* --- Shape ----------------------------------------------------------- *)

let test_shape_basics () =
  let s = Shape.create [| 2; 3; 4 |] in
  Alcotest.(check int) "rank" 3 (Shape.rank s);
  Alcotest.(check int) "numel" 24 (Shape.numel s);
  Alcotest.(check string) "to_string" "[2,3,4]" (Shape.to_string s);
  (match Shape.create [| 2; 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero dim accepted")

let test_shape_strides () =
  let s = Shape.create [| 2; 3; 4 |] in
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |]
    (Shape.row_major_strides s)

let test_shape_coords_roundtrip () =
  let s = Shape.create [| 3; 5; 2 |] in
  for i = 0 to Shape.numel s - 1 do
    let c = Shape.coords_of_index s i in
    let i' =
      Shape.index_of_coords ~strides:(Shape.row_major_strides s) c
    in
    Alcotest.(check int) "roundtrip" i i'
  done

let test_iter_coords_order () =
  let s = Shape.create [| 2; 2 |] in
  let seen = ref [] in
  Shape.iter_coords s (fun c -> seen := Array.copy c :: !seen);
  Alcotest.(check int) "count" 4 (List.length !seen);
  Alcotest.(check bool) "row-major order" true
    (List.rev !seen = [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ])

let test_broadcast () =
  Alcotest.(check bool) "[4,8] ~ [1,8]" true
    (Shape.broadcast_compatible [| 4; 8 |] [| 1; 8 |]);
  Alcotest.(check bool) "[4,8] ~ [8]" true
    (Shape.broadcast_compatible [| 4; 8 |] [| 8 |]);
  Alcotest.(check bool) "[4,8] !~ [3,8]" false
    (Shape.broadcast_compatible [| 4; 8 |] [| 3; 8 |]);
  Alcotest.(check (array int)) "result" [| 4; 8 |]
    (Shape.broadcast [| 4; 8 |] [| 1; 8 |]);
  Alcotest.(check (array int)) "rank extend" [| 2; 4; 8 |]
    (Shape.broadcast [| 2; 4; 8 |] [| 4; 1 |])

let test_split_scale () =
  Alcotest.(check (array int)) "split" [| 4; 2 |]
    (Shape.split_dim [| 4; 8 |] ~dim:1 ~chunks:4);
  Alcotest.(check (array int)) "scale" [| 4; 32 |]
    (Shape.scale_dim [| 4; 8 |] ~dim:1 ~times:4);
  (match Shape.split_dim [| 4; 8 |] ~dim:1 ~chunks:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-dividing split accepted")

(* --- Layout ---------------------------------------------------------- *)

let test_layout_strides () =
  let s = Shape.create [| 2; 3; 4 |] in
  Alcotest.(check (array int)) "row major" [| 12; 4; 1 |]
    (Layout.strides Layout.Row_major s);
  Alcotest.(check (array int)) "col major" [| 12; 1; 3 |]
    (Layout.strides Layout.Col_major s);
  Alcotest.(check int) "row innermost" 2
    (Layout.innermost_dim Layout.Row_major s);
  Alcotest.(check int) "col innermost" 1
    (Layout.innermost_dim Layout.Col_major s)

let test_layout_permuted () =
  let s = Shape.create [| 2; 3; 4 |] in
  let l = Layout.Permuted [| 2; 1; 0 |] in
  Alcotest.(check bool) "valid" true (Layout.is_valid l s);
  (* dim 0 is innermost (position 2): stride 1; dim 2 outermost. *)
  Alcotest.(check (array int)) "strides" [| 1; 2; 6 |] (Layout.strides l s);
  Alcotest.(check bool) "bad perm rejected" false
    (Layout.is_valid (Layout.Permuted [| 0; 0; 1 |]) s)

let test_layout_strides_cover_all_cells () =
  (* Whatever the layout, the strides must enumerate each linear index
     exactly once. *)
  let s = Shape.create [| 2; 3; 4 |] in
  List.iter
    (fun l ->
      let strides = Layout.strides l s in
      let seen = Hashtbl.create 24 in
      Shape.iter_coords s (fun c ->
          Hashtbl.replace seen (Shape.index_of_coords ~strides c) ());
      Alcotest.(check int)
        (Layout.to_string l ^ " bijective")
        24 (Hashtbl.length seen))
    [ Layout.Row_major; Layout.Col_major; Layout.Permuted [| 1; 2; 0 |] ]

(* --- Dense ----------------------------------------------------------- *)

let t_of_list shape l = Dense.of_list shape (List.map float_of_int l)

let test_create_validation () =
  match Dense.create [| 2; 2 |] [| 1.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad element count accepted"

let test_map2_broadcast () =
  let a = t_of_list [| 2; 2 |] [ 1; 2; 3; 4 ] in
  let b = t_of_list [| 1; 2 |] [ 10; 20 ] in
  let c = Dense.map2 fops fops.Element.add a b in
  check_tensor "broadcast add" (t_of_list [| 2; 2 |] [ 11; 22; 13; 24 ]) c

let test_matmul () =
  let a = t_of_list [| 2; 3 |] [ 1; 2; 3; 4; 5; 6 ] in
  let b = t_of_list [| 3; 2 |] [ 7; 8; 9; 10; 11; 12 ] in
  let c = Dense.matmul fops a b in
  check_tensor "2x3 * 3x2" (t_of_list [| 2; 2 |] [ 58; 64; 139; 154 ]) c

let test_matmul_batched () =
  let a = t_of_list [| 2; 2; 2 |] [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let b = t_of_list [| 2; 2; 2 |] [ 1; 0; 0; 1; 2; 0; 0; 2 ] in
  let c = Dense.matmul fops a b in
  check_tensor "batched identity/scale"
    (t_of_list [| 2; 2; 2 |] [ 1; 2; 3; 4; 10; 12; 14; 16 ])
    c

let test_matmul_batch_broadcast () =
  (* A batch of matrices against a single (broadcast) weight matrix. *)
  let a = t_of_list [| 2; 1; 2 |] [ 1; 2; 3; 4 ] in
  let b = t_of_list [| 2; 2 |] [ 1; 0; 0; 1 ] in
  let c = Dense.matmul fops a b in
  check_tensor "broadcast weight" (t_of_list [| 2; 1; 2 |] [ 1; 2; 3; 4 ]) c

let test_sum_grouped () =
  let a = t_of_list [| 2; 4 |] [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let full = Dense.sum_grouped fops ~dim:1 ~group:4 a in
  check_tensor "full reduce" (t_of_list [| 2; 1 |] [ 10; 26 ]) full;
  let pairs = Dense.sum_grouped fops ~dim:1 ~group:2 a in
  check_tensor "pairwise" (t_of_list [| 2; 2 |] [ 3; 7; 11; 15 ]) pairs

let test_repeat () =
  let a = t_of_list [| 1; 2 |] [ 1; 2 ] in
  let r = Dense.repeat fops ~dim:0 ~times:3 a in
  check_tensor "tile rows" (t_of_list [| 3; 2 |] [ 1; 2; 1; 2; 1; 2 ]) r

let test_slice_concat_roundtrip () =
  let a = t_of_list [| 2; 6 |] [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ] in
  let parts =
    List.init 3 (fun i -> Dense.slice ~dim:1 ~index:i ~chunks:3 a)
  in
  check_tensor "roundtrip" a (Dense.concat ~dim:1 parts);
  let s0 = List.nth parts 0 in
  check_tensor "first slice" (t_of_list [| 2; 2 |] [ 0; 1; 6; 7 ]) s0

let test_transpose () =
  let a = t_of_list [| 2; 3 |] [ 1; 2; 3; 4; 5; 6 ] in
  let at = Dense.transpose_last2 a in
  check_tensor "transpose" (t_of_list [| 3; 2 |] [ 1; 4; 2; 5; 3; 6 ]) at;
  check_tensor "involution" a (Dense.transpose_last2 at)

let test_reshape () =
  let a = t_of_list [| 2; 3 |] [ 1; 2; 3; 4; 5; 6 ] in
  let r = Dense.reshape [| 3; 2 |] a in
  check_tensor "row-major reshape" (t_of_list [| 3; 2 |] [ 1; 2; 3; 4; 5; 6 ]) r

let test_scalar_and_get () =
  let s = Dense.scalar 42.0 in
  Alcotest.(check int) "numel" 1 (Dense.numel s);
  let a = t_of_list [| 2; 3 |] [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.check float_t "get [1,2]" 6.0 (Dense.get a [| 1; 2 |])

let small_tensor_gen =
  QCheck2.Gen.(
    let* rows = int_range 1 4 and* cols = int_range 1 4 in
    let* data = list_repeat (rows * cols) (float_range (-10.0) 10.0) in
    return (Dense.of_list [| rows; cols |] data))

let prop_matmul_linear =
  qcheck "matmul is linear in first argument"
    QCheck2.Gen.(
      let* k = int_range 1 3 in
      let* m = int_range 1 3 and* n = int_range 1 3 in
      let* a1 = list_repeat (m * k) (float_range (-5.0) 5.0) in
      let* a2 = list_repeat (m * k) (float_range (-5.0) 5.0) in
      let* b = list_repeat (k * n) (float_range (-5.0) 5.0) in
      return (m, k, n, a1, a2, b))
    (fun (m, k, n, a1, a2, b) ->
      let t1 = Dense.of_list [| m; k |] a1 in
      let t2 = Dense.of_list [| m; k |] a2 in
      let tb = Dense.of_list [| k; n |] b in
      let lhs = Dense.matmul fops (Dense.map2 fops ( +. ) t1 t2) tb in
      let rhs =
        Dense.map2 fops ( +. ) (Dense.matmul fops t1 tb)
          (Dense.matmul fops t2 tb)
      in
      Dense.equal (fun a b -> Element.float_approx_equal ~rtol:1e-6 a b) lhs rhs)

let prop_sum_grouped_total =
  qcheck "grouped sums preserve the total" small_tensor_gen (fun t ->
      let shape = Dense.shape t in
      let cols = shape.(1) in
      let full = Dense.sum_grouped fops ~dim:1 ~group:cols t in
      let total2 = Dense.sum_grouped fops ~dim:0 ~group:shape.(0) full in
      let all = Array.fold_left ( +. ) 0.0 (Dense.map Fun.id t).Dense.data in
      Element.float_approx_equal ~rtol:1e-6 all (Dense.get total2 [| 0; 0 |]))

let prop_slice_concat =
  qcheck "slice/concat roundtrip"
    QCheck2.Gen.(
      let* rows = int_range 1 3 in
      let* chunks = int_range 1 3 in
      let* per = int_range 1 3 in
      let cols = chunks * per in
      let* data = list_repeat (rows * cols) (float_range (-5.0) 5.0) in
      return (rows, cols, chunks, data))
    (fun (rows, cols, chunks, data) ->
      let t = Dense.of_list [| rows; cols |] data in
      let parts =
        List.init chunks (fun i -> Dense.slice ~dim:1 ~index:i ~chunks t)
      in
      Dense.equal Float.equal t (Dense.concat ~dim:1 parts))

let () =
  Alcotest.run "tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basics;
          Alcotest.test_case "strides" `Quick test_shape_strides;
          Alcotest.test_case "coords roundtrip" `Quick
            test_shape_coords_roundtrip;
          Alcotest.test_case "iter order" `Quick test_iter_coords_order;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "split/scale" `Quick test_split_scale;
        ] );
      ( "layout",
        [
          Alcotest.test_case "strides" `Quick test_layout_strides;
          Alcotest.test_case "permuted" `Quick test_layout_permuted;
          Alcotest.test_case "bijective" `Quick
            test_layout_strides_cover_all_cells;
        ] );
      ( "dense",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "map2 broadcast" `Quick test_map2_broadcast;
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "matmul batched" `Quick test_matmul_batched;
          Alcotest.test_case "matmul batch broadcast" `Quick
            test_matmul_batch_broadcast;
          Alcotest.test_case "sum grouped" `Quick test_sum_grouped;
          Alcotest.test_case "repeat" `Quick test_repeat;
          Alcotest.test_case "slice/concat" `Quick test_slice_concat_roundtrip;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "reshape" `Quick test_reshape;
          Alcotest.test_case "scalar/get" `Quick test_scalar_and_get;
          prop_matmul_linear;
          prop_sum_grouped_total;
          prop_slice_concat;
        ] );
    ]
