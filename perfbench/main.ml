(* The repository's benchmark program.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload with inputs made from the seed, checks every
   output, prints each metric it measured with its unit and sample count,
   then, as the last line of standard output, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With [--trace 0] the
   metrics are the end-to-end ones of BENCHMARK.json; with [--trace 1]
   the per-layer ones, taken with spans on, plus each layer's self time
   and the tracing overhead. Metric names and units come from
   BENCHMARK.json, so the two cannot drift apart. *)

module J = Obs.Jsonw

let workloads =
  [
    ("search_fig7", Searchw.run);
    ("codegen_fig7", Codegenw.run);
    ("serve_mix", Servew.run);
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* (name, unit) of every metric in one list of BENCHMARK.json *)
let declared key =
  let doc =
    match J.of_string (read_file "BENCHMARK.json") with
    | Ok d -> d
    | Error m -> die "BENCHMARK.json: %s" m
  in
  match J.member key doc with
  | Some (J.List l) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.Str n), Some (J.Str u) -> (n, u)
          | _ -> die "BENCHMARK.json: malformed %s entry" key)
        l
  | _ -> die "BENCHMARK.json: no %s list" key

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> die "usage: main.exe --workload W --seed N --seconds S --trace 0|1"
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> die "missing --%s" k in
  let num k conv = match conv (get k) with Some v -> v | None -> die "bad --%s" k in
  let workload = get "workload" in
  let run =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
        die "unknown workload %S (known: %s)" workload
          (String.concat ", " (List.map fst workloads))
  in
  let seed = num "seed" int_of_string_opt in
  let seconds = num "seconds" float_of_string_opt in
  let trace = num "trace" int_of_string_opt = 1 in
  let wanted = declared (if trace then "per_layer" else "end_to_end") in
  let tmp = Printf.sprintf "perfbench/tmp/%s-%d" workload (Unix.getpid ()) in
  let ctx = Ctx.create ~workload ~seed ~seconds ~trace ~tmp in
  at_exit (fun () -> Ctx.rm_rf tmp);
  Span.set_enabled trace;
  (try run ctx
   with e ->
     Printf.eprintf "%s aborted: %s\n%!" workload (Printexc.to_string e);
     exit 1);
  Span.set_enabled false;
  let g = Gc.quick_stat () in
  Ctx.record ctx ~note:"Gc.quick_stat top heap" "run.peak_heap_mb" "MB"
    (float_of_int (g.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  if trace then begin
    Ctx.mkdir_p "perfbench/out";
    let path = Printf.sprintf "perfbench/out/%s-seed%d.spans.json" workload seed in
    Span.write path;
    Printf.printf "# spans written to %s\n" path
  end;
  let metrics = List.rev ctx.Ctx.metrics in
  List.iter
    (fun (n, (v, u, note)) ->
      Printf.printf "# %-36s %14.6g %-6s %s\n" n v u note)
    metrics;
  let correct = ref (Atomic.get ctx.Ctx.failed = 0) in
  let out =
    List.map
      (fun (n, u) ->
        let v =
          match List.assoc_opt n metrics with
          | Some (v, u', _) when u' = u && Float.is_finite v -> v
          | Some (v, u', _) ->
              Printf.eprintf "metric %s: %g %s, declared in %s\n" n v u' u;
              correct := false;
              0.0
          | None when trace -> 0.0 (* a layer this workload does not load *)
          | None ->
              Printf.eprintf "metric %s was not measured\n" n;
              correct := false;
              0.0
        in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      wanted
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct
    (max 1 (Atomic.get ctx.Ctx.attempted))
    (Atomic.get ctx.Ctx.failed)
    (String.concat ", " out)
