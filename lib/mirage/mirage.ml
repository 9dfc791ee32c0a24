open Mugraph
module Partition = Partition

type piece_result = {
  piece : Partition.piece;
  outcome : Search.Generator.outcome option;
  best : Graph.kernel_graph;
  best_cost : Gpusim.Cost.graph_cost;
  input_cost : Gpusim.Cost.graph_cost;
  opt_report : Opt.Optimizer.report;
}

type report = {
  device : Gpusim.Device.t;
  partition : Partition.t;
  pieces : piece_result list;
  input_us : float;
  optimized_us : float;
  speedup : float;
}

let superoptimize ?config ?(verify_trials = 2) ?budget ?checkpoint
    ~(device : Gpusim.Device.t) program =
  let partition =
    Obs.Profile.with_phase "partition" (fun () -> Partition.partition program)
  in
  Obs.Log.info (fun m ->
      m "superoptimize: %d pieces on %s"
        (List.length partition.Partition.pieces)
        device.Gpusim.Device.name);
  let pieces =
    List.map
      (fun (p : Partition.piece) ->
        let input_cost = Gpusim.Cost.cost device p.Partition.graph in
        if not p.Partition.lax then
          {
            piece = p;
            outcome = None;
            best = p.Partition.graph;
            best_cost = input_cost;
            input_cost;
            opt_report = Opt.Optimizer.optimize ?budget device p.Partition.graph;
          }
        else begin
          let outcome =
            Search.Generator.run ?config ~verify_trials ?budget ?checkpoint
              ~piece:p.Partition.id ~device ~spec:p.Partition.graph ()
          in
          let best_graph, best_cost =
            match outcome.Search.Generator.best with
            | Some r -> (r.Search.Generator.graph, r.Search.Generator.cost)
            | None -> (p.Partition.graph, input_cost)
          in
          {
            piece = p;
            outcome = Some outcome;
            best = best_graph;
            best_cost;
            input_cost;
            opt_report = Opt.Optimizer.optimize ?budget device best_graph;
          }
        end)
      partition.Partition.pieces
  in
  let input_us =
    List.fold_left
      (fun acc r -> acc +. r.input_cost.Gpusim.Cost.total_us)
      0.0 pieces
  in
  let optimized_us =
    List.fold_left
      (fun acc r -> acc +. r.best_cost.Gpusim.Cost.total_us)
      0.0 pieces
  in
  {
    device;
    partition;
    pieces;
    input_us;
    optimized_us;
    speedup = input_us /. optimized_us;
  }

let summary r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "Mirage on %s: %.2f us -> %.2f us (%.2fx)\n"
       r.device.Gpusim.Device.name r.input_us r.optimized_us r.speedup);
  List.iter
    (fun pr ->
      Buffer.add_string buf
        (Printf.sprintf "  piece %d (%s): %.2f -> %.2f us%s\n"
           pr.piece.Partition.id
           (if pr.piece.Partition.lax then "LAX" else "non-LAX")
           pr.input_cost.Gpusim.Cost.total_us
           pr.best_cost.Gpusim.Cost.total_us
           (match pr.outcome with
           | Some o ->
               Printf.sprintf " [%d candidates, %d verified]"
                 o.Search.Generator.generated
                 o.Search.Generator.stats.Search.Stats.verified
           | None -> "")))
    r.pieces;
  Buffer.contents buf
