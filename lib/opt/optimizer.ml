open Mugraph

type kernel_report = {
  node : int;
  schedule : Schedule.t;
  memplan : Memplan.plan;
  layout : Layout_opt.assignment option;
}

type report = {
  kernels : kernel_report list;
  syncthreads : int;
  smem_peak_bytes : int;
  layout_cost : float;
  layout_naive_cost : float;
  degraded_layouts : int;
  degraded_memplans : int;
}

let optimize ?budget (device : Gpusim.Device.t) (g : Graph.kernel_graph) =
  Obs.Profile.with_phase "optimize" @@ fun () ->
  let shapes = Infer.kernel_shapes g in
  let kernels =
    Array.to_list g.knodes
    |> List.mapi (fun i node -> (i, node))
    |> List.filter_map (fun (i, (node : Graph.kernel_node)) ->
           match node.kop with
           | Graph.K_graphdef bg ->
               let kernel_inputs =
                 List.map
                   (fun ({ node = j; port } : Graph.tensor_ref) ->
                     shapes.(j).(port))
                   node.kins
               in
               Some
                 {
                   node = i;
                   schedule =
                     Obs.Profile.with_phase "opt.schedule" (fun () ->
                         Schedule.block_schedule bg);
                   memplan =
                     Obs.Profile.with_phase "opt.memplan" (fun () ->
                         Memplan.plan_block ?budget
                           ~elt_bytes:device.Gpusim.Device.elt_bytes bg
                           ~kernel_inputs);
                   layout =
                     Obs.Profile.with_phase "opt.layout" (fun () ->
                         Layout_opt.optimize_block ?budget bg ~kernel_inputs);
                 }
           | Graph.K_input _ | Graph.K_prim _ -> None)
  in
  let layout_cost, layout_naive_cost =
    List.fold_left
      (fun (o, n) k ->
        match k.layout with
        | Some a -> (o +. a.Layout_opt.cost, n +. a.Layout_opt.naive_cost)
        | None -> (o, n))
      (0.0, 0.0) kernels
  in
  {
    kernels;
    syncthreads = Schedule.total_syncthreads g;
    smem_peak_bytes =
      List.fold_left
        (fun acc k -> max acc k.memplan.Memplan.peak_bytes)
        0 kernels;
    layout_cost;
    layout_naive_cost;
    degraded_layouts =
      List.fold_left
        (fun acc k ->
          match k.layout with
          | Some { Layout_opt.source = Layout_opt.Ilp_optimal; _ } | None ->
              acc
          | Some _ -> acc + 1)
        0 kernels;
    degraded_memplans =
      List.fold_left
        (fun acc k ->
          if k.memplan.Memplan.optimal then acc else acc + 1)
        0 kernels;
  }

let layouts r =
  List.filter_map
    (fun k -> Option.map (fun l -> (k.node, l)) k.layout)
    r.kernels

let fits (device : Gpusim.Device.t) r =
  r.smem_peak_bytes <= device.Gpusim.Device.smem_per_sm_bytes

let summary r =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "optimizer: %d custom kernels, %d syncthreads, %d B smem peak, layout \
        cost %.2f (naive %.2f)%s\n"
       (List.length r.kernels) r.syncthreads r.smem_peak_bytes r.layout_cost
       r.layout_naive_cost
       (if r.degraded_layouts = 0 then ""
        else Printf.sprintf ", %d degraded layout solve(s)" r.degraded_layouts));
  List.iter
    (fun k ->
      Buffer.add_string buf
        (Printf.sprintf
           "  k%d: %d sync (naive %d), smem peak %d B (naive %d B), planner \
            %s, layout %s\n"
           k.node k.schedule.Schedule.syncthreads
           k.schedule.Schedule.naive_syncthreads k.memplan.Memplan.peak_bytes
           (Memplan.naive_peak k.memplan)
           (if k.memplan.Memplan.optimal then "optimal" else "first-fit")
           (match k.layout with
           | Some a -> Layout_opt.source_to_string a.Layout_opt.source
           | None -> "none")))
    r.kernels;
  Buffer.contents buf
