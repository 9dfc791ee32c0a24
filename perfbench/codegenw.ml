(* codegen_fig7: the six hand-template plans, each taken from plan to a
   checked runnable kernel — verify against its spec, optimize, lower,
   emit, cc — then run on seeded input sets and compared with the
   interpreter. *)

open Mugraph

let device = Ctx.device
let inputs_per_compile = 4
let tol = 1e-4

(* |a-b| relative to the larger magnitude (tiny values compare almost
   absolutely); NaN only matches NaN. *)
let rel_err a b =
  if Float.is_nan a || Float.is_nan b then if Float.is_nan a && Float.is_nan b then 0.0 else infinity
  else if a = b then 0.0
  else Float.abs (a -. b) /. Float.max 1e-6 (Float.max (Float.abs a) (Float.abs b))

type tally = {
  mutable trials : int;
  mutable checks : int;
  mutable passed : int;
  mutable degraded_layouts : int;
  mutable c_lines : int;
  mutable code_bytes : int;
  mutable max_err : float;
  mutable run_s : float list;
  mutable interp_s : float list;
}

let run ctx =
  let plans = ref [] in
  let dir =
    Ctx.setup ctx ~teardown:Ctx.rm_rf (fun () ->
        plans :=
          List.map
            (fun (b : Workloads.Bench_defs.benchmark) ->
              let spec, plan = b.Workloads.Bench_defs.reduced () in
              (b.Workloads.Bench_defs.name, spec, plan))
            (Workloads.Bench_defs.all ());
        if not (Codegen.C_exec.cc_available ()) then failwith "no working cc";
        (* the warm-up compile builds the directory's runner *)
        let dir = Ctx.fresh_dir ctx "cc" in
        let _, _, plan = List.hd (List.rev !plans) in
        let prog = Impir.Lower.lower ~name:"warmup" plan in
        (match Codegen.C_exec.compile ~dir prog with
        | Ok c ->
            ignore
              (Codegen.C_exec.run c
                 (List.map
                    (fun s -> Array.make (Tensor.Shape.numel s) 1.0)
                    (Graph.input_shapes plan)))
        | Error m -> failwith m);
        dir)
  in
  let t =
    {
      trials = 0;
      checks = 0;
      passed = 0;
      degraded_layouts = 0;
      c_lines = 0;
      code_bytes = 0;
      max_err = 0.0;
      run_s = [];
      interp_s = [];
    }
  in
  let first_round = ref true in
  (* plan -> checked runnable kernel: the compile op *)
  let compile name spec plan =
    Span.op "codegen" name @@ fun () ->
    let d =
      Span.with_ "verify" "check" (fun () ->
          Verify.Random_test.equivalent_detailed ~trials:8 ~seed:ctx.Ctx.seed ~spec plan)
    in
    t.checks <- t.checks + 1;
    t.trials <- t.trials + d.Verify.Random_test.trials_run;
    if d.Verify.Random_test.result <> Verify.Random_test.Equivalent then
      failwith ("plan fails verification: " ^ Verify.Random_test.to_string d.Verify.Random_test.result);
    t.passed <- t.passed + 1;
    let rep = Span.with_ "opt" "optimize" (fun () -> Opt.Optimizer.optimize device plan) in
    let layouts =
      List.filter_map
        (fun (k : Opt.Optimizer.kernel_report) ->
          Option.map (fun l -> (k.Opt.Optimizer.node, l)) k.Opt.Optimizer.layout)
        rep.Opt.Optimizer.kernels
    in
    let prog = Span.with_ "impir" "lower" (fun () -> Impir.Lower.lower ~layouts ~name plan) in
    (match Impir.Ir.check_program prog with
    | Ok () -> ()
    | Error m -> failwith ("ill-formed impir: " ^ m));
    let src = Span.with_ "codegen" "emit" (fun () -> Codegen.C_emit.emit prog) in
    if !first_round then begin
      t.degraded_layouts <- t.degraded_layouts + rep.Opt.Optimizer.degraded_layouts;
      t.c_lines <- t.c_lines + Codegen.C_emit.loc src;
      t.code_bytes <- t.code_bytes + String.length src
    end;
    match Span.with_ "codegen" "cc" (fun () -> Codegen.C_exec.compile ~dir prog) with
    | Ok c -> c
    | Error m -> failwith m
  in
  let execute name plan c =
    let shapes = Graph.input_shapes plan in
    for _ = 1 to inputs_per_compile do
      let ins =
        List.map
          (fun s ->
            Array.init (Tensor.Shape.numel s) (fun _ ->
                0.25 +. (1.5 *. Random.State.float ctx.Ctx.rng 1.0)))
          shapes
      in
      Ctx.attempt ctx;
      Span.op "codegen" "exec" @@ fun () ->
      match Ctx.time (fun () -> Span.with_ "codegen" "run" (fun () -> Codegen.C_exec.run c ins)) with
      | Error m, _ -> Ctx.fail ctx "%s: run: %s" name m
      | Ok actual, dt ->
          t.run_s <- dt :: t.run_s;
          let expected, di =
            Ctx.time (fun () ->
                Span.with_ "mugraph" "interp" (fun () ->
                    Interp.eval_kernel Tensor.Element.float_ops plan
                      ~inputs:(List.map2 Tensor.Dense.create shapes ins)))
          in
          t.interp_s <- di :: t.interp_s;
          let worst = ref 0.0 in
          List.iter2
            (fun e a ->
              Array.iteri
                (fun i x -> worst := Float.max !worst (rel_err (Tensor.Dense.get_linear e i) x))
                a)
            expected actual;
          t.max_err <- Float.max t.max_err !worst;
          if !worst > tol then
            Ctx.fail ctx "%s: compiled output differs from the interpreter (rel err %.3g)" name
              !worst
    done
  in
  let rounds = Ctx.rounds ctx ~per_10s:10.0 in
  let samples = ref [] in
  let t0 = Ctx.now () in
  for _ = 1 to rounds do
    List.iter
      (fun (name, spec, plan) ->
        Ctx.attempt ctx;
        match Ctx.time (fun () -> compile name spec plan) with
        | c, dt ->
            samples := (name, dt) :: !samples;
            execute name plan c
        | exception e -> Ctx.fail ctx "%s: compile: %s" name (Printexc.to_string e))
      (Ctx.shuffle ctx !plans);
    first_round := false
  done;
  let wall_s = Ctx.now () -. t0 in
  Ctx.record_ops ctx ~samples:!samples ~wall_s;
  Ctx.record_median ctx "codegen.run_ms" "ms" ~scale:1e3 t.run_s;
  Ctx.record_tail ctx "codegen.exec_tail_ms" "ms" ~scale:1e3 t.run_s;
  Ctx.record ctx ~note:"six plans" "codegen.code_kb" "KiB" (float_of_int t.code_bytes /. 1024.0);
  Ctx.record ctx ~note:"six plans" "codegen.c_lines" "lines" (float_of_int t.c_lines);
  Ctx.record ctx "codegen.max_rel_err" "ratio" t.max_err;
  Ctx.record ctx "opt.degraded_layouts" "count" (float_of_int t.degraded_layouts);
  Ctx.record_median ctx "mugraph.interp_ms" "ms" ~scale:1e3 t.interp_s;
  if ctx.Ctx.trace then begin
    let per = float_of_int rounds in
    let pr name unit v = Ctx.record ctx ~note:"per round" name unit v in
    let verify_s = Span.total ~layer:"verify" ~name:"check" in
    pr "verify.check_s" "s" (verify_s /. per);
    pr "verify.trials" "count" (float_of_int t.trials /. per);
    pr "verify.trials_per_s" "1/s" (float_of_int t.trials /. verify_s);
    pr "verify.pass_ratio" "ratio" (float_of_int t.passed /. float_of_int (max 1 t.checks));
    pr "opt.optimize_s" "s" (Span.total ~layer:"opt" ~name:"optimize" /. per);
    pr "impir.lower_s" "s" (Span.total ~layer:"impir" ~name:"lower" /. per);
    pr "codegen.emit_s" "s" (Span.total ~layer:"codegen" ~name:"emit" /. per);
    pr "codegen.cc_s" "s" (Span.total ~layer:"codegen" ~name:"cc" /. per);
    Ctx.record_self_times ctx ~layers:[ "codegen"; "mugraph" ] ~per;
    (* the untraced twin of one round prices the spans *)
    let traced = Stat.sum (List.map snd !samples) /. per in
    Span.set_enabled false;
    let untraced =
      Stat.sum
        (List.map
           (fun (name, spec, plan) -> snd (Ctx.time (fun () -> compile name spec plan)))
           !plans)
    in
    Ctx.record ctx "trace.overhead" "ratio" ((traced /. untraced) -. 1.0)
  end
