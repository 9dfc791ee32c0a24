(* Tests for the benchmark workloads and baseline templates: every fused
   plan must be probabilistically equivalent to its specification
   (reduced dims), every plan must construct and cost at paper dims, and
   the headline comparisons must hold on the simulator. *)

open Workloads

let a100 = Gpusim.Device.a100
let h100 = Gpusim.Device.h100

let us dev g = (Gpusim.Cost.cost dev g).Gpusim.Cost.total_us

let test_all_constructible () =
  (* constructing a benchmark validates every plan's muGraph *)
  let bs = Bench_defs.all () in
  Alcotest.(check int) "six benchmarks" 6 (List.length bs);
  List.iter
    (fun (b : Bench_defs.benchmark) ->
      Alcotest.(check bool)
        (b.name ^ " has baselines")
        true
        (List.length b.systems >= 4);
      (* shapes infer on every plan *)
      List.iter
        (fun (_, g) ->
          Alcotest.(check bool) "shapes infer" true
            (Mugraph.Infer.infer_opt g <> None))
        (("Mirage", b.mirage) :: b.systems))
    bs

let test_reduced_plans_verified () =
  List.iter
    (fun (b : Bench_defs.benchmark) ->
      let spec, plan = b.reduced () in
      Alcotest.(check string)
        (b.name ^ " reduced plan equivalent")
        "equivalent"
        (Verify.Random_test.to_string
           (Verify.Random_test.equivalent ~trials:2 ~spec plan)))
    (Bench_defs.all ())

let test_baseline_plans_verified () =
  (* the baselines must compute the same function too (at reduced dims,
     using the same template constructors as the paper-dim plans) *)
  let checks =
    [
      ( "attention unfused",
        Baselines.Templates.attention_spec ~b:2 ~gk:2 ~grp:4 ~s:128 ~dh:8,
        Baselines.Templates.attention_unfused ~b:2 ~gk:2 ~grp:4 ~s:128 ~dh:8
      );
      ( "attention heads",
        Baselines.Templates.attention_spec ~b:2 ~gk:2 ~grp:4 ~s:128 ~dh:8,
        Baselines.Templates.attention_fused_heads ~b:2 ~gk:2 ~grp:4 ~s:128
          ~dh:8 );
      ( "attention flashdecoding",
        Baselines.Templates.attention_spec ~b:2 ~gk:2 ~grp:4 ~s:128 ~dh:8,
        Baselines.Templates.attention_fused_split_kv ~b:2 ~gk:2 ~grp:4
          ~s:128 ~dh:8 ~split:2 ~group_in_block:false );
      ( "qknorm unfused",
        Baselines.Templates.qknorm_attention_spec ~b:1 ~gk:2 ~grp:2 ~s:64
          ~dh:8,
        Baselines.Templates.qknorm_attention_unfused ~b:1 ~gk:2 ~grp:2 ~s:64
          ~dh:8 );
      ( "rmsnorm unfused",
        Baselines.Templates.rmsnorm_matmul_spec ~b:4 ~h:8 ~d:16,
        Baselines.Templates.rmsnorm_matmul_unfused ~b:4 ~h:8 ~d:16 );
      ( "gatedmlp two-kernel",
        Baselines.Templates.gated_mlp_spec ~b:4 ~h:16 ~f:32,
        Baselines.Templates.gated_mlp_two_kernel ~b:4 ~h:16 ~f:32 );
      ( "ntrans unfused",
        Baselines.Templates.ntrans_spec ~b:4 ~d:32,
        Baselines.Templates.ntrans_unfused ~b:4 ~d:32 );
    ]
  in
  List.iter
    (fun (name, spec, plan) ->
      Alcotest.(check string) name "equivalent"
        (Verify.Random_test.to_string
           (Verify.Random_test.equivalent ~trials:2 ~spec plan)))
    checks

let test_mirage_wins_every_benchmark () =
  List.iter
    (fun dev ->
      List.iter
        (fun (b : Bench_defs.benchmark) ->
          let mirage = us dev b.mirage in
          List.iter
            (fun (sys, g) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: Mirage <= %s on %s" b.name sys
                   dev.Gpusim.Device.name)
                true
                (mirage <= us dev g +. 1e-9))
            b.systems)
        (Bench_defs.all ()))
    [ a100; h100 ]

let test_speedup_bands () =
  (* paper: 1.1x - 2.9x over the best baseline across benchmarks/GPUs *)
  List.iter
    (fun dev ->
      List.iter
        (fun (b : Bench_defs.benchmark) ->
          let mirage = us dev b.mirage in
          let best =
            List.fold_left
              (fun acc (_, g) -> Float.min acc (us dev g))
              infinity b.systems
          in
          let s = best /. mirage in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: %.2fx within [1.0, 3.5]" b.name
               dev.Gpusim.Device.name s)
            true
            (s >= 1.0 && s <= 3.5))
        (Bench_defs.all ()))
    [ a100; h100 ]

let test_gqa_traffic_reduction () =
  (* §8.2: grouping queries in one block cuts DRAM traffic vs per-head
     split-KV by >5x at batch 8 *)
  let redundant =
    Baselines.Templates.attention_fused_split_kv ~b:8 ~gk:2 ~grp:8 ~s:4096
      ~dh:128 ~split:4 ~group_in_block:false
  in
  let grouped =
    Baselines.Templates.attention_fused_split_kv ~b:8 ~gk:2 ~grp:8 ~s:4096
      ~dh:128 ~split:8 ~group_in_block:true
  in
  let tr g = (Gpusim.Cost.cost a100 g).Gpusim.Cost.total_dram_bytes in
  Alcotest.(check bool) "traffic reduction > 5x" true
    (tr redundant /. tr grouped > 5.0)

let test_gatedmlp_h100_gains_more () =
  (* the paper's A100-vs-H100 signature for GatedMLP *)
  let b = Bench_defs.gated_mlp () in
  let ratio dev =
    let best =
      List.fold_left (fun acc (_, g) -> Float.min acc (us dev g)) infinity
        b.systems
    in
    best /. us dev b.mirage
  in
  Alcotest.(check bool) "H100 speedup >= A100 speedup" true
    (ratio h100 >= ratio a100)

let test_models () =
  let ms = Models.all () in
  Alcotest.(check int) "four models" 4 (List.length ms);
  List.iter
    (fun m ->
      List.iter
        (fun dev ->
          let base = Models.latency_us dev m ~optimized:false in
          let opti = Models.latency_us dev m ~optimized:true in
          let s = base /. opti in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: %.2fx within [1.0, 2.2]"
               m.Models.name dev.Gpusim.Device.name s)
            true
            (s >= 1.0 && s <= 2.2))
        [ a100; h100 ])
    ms

(* Every benchmark of [all ()] resolves by its own name in any case, to
   a benchmark of that name and spec; an unknown name to [None]. *)
let test_by_name () =
  List.iter
    (fun (b : Bench_defs.benchmark) ->
      List.iter
        (fun n ->
          match Bench_defs.by_name n with
          | Some b' ->
              Alcotest.(check string) ("by_name " ^ n) b.name b'.name;
              Alcotest.(check bool) (n ^ ": the same spec") true
                (Mugraph.Graph.equal b.spec b'.spec)
          | None -> Alcotest.failf "by_name %s: None" n)
        [ b.name; String.lowercase_ascii b.name; String.uppercase_ascii b.name ])
    (Bench_defs.all ());
  Alcotest.(check bool) "unknown" true (Bench_defs.by_name "resnet" = None)

let () =
  Alcotest.run "workloads"
    [
      ( "construction",
        [
          Alcotest.test_case "all constructible" `Quick test_all_constructible;
          Alcotest.test_case "by name" `Quick test_by_name;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "mirage plans verified" `Quick
            test_reduced_plans_verified;
          Alcotest.test_case "baseline plans verified" `Quick
            test_baseline_plans_verified;
        ] );
      ( "figure7",
        [
          Alcotest.test_case "mirage never loses" `Quick
            test_mirage_wins_every_benchmark;
          Alcotest.test_case "speedup bands" `Quick test_speedup_bands;
          Alcotest.test_case "gqa traffic reduction" `Quick
            test_gqa_traffic_reduction;
          Alcotest.test_case "gatedmlp h100 signature" `Quick
            test_gatedmlp_h100_gains_more;
        ] );
      ( "figure11",
        [ Alcotest.test_case "end-to-end bands" `Quick test_models ] );
    ]
