open Tensor
open Mugraph

type kernel_cost = {
  node : int;
  kind : string;
  blocks : int;
  launch_us : float;
  compute_us : float;
  dram_us : float;
  smem_us : float;
  total_us : float;
  dram_bytes : float;
  flops : float;
}

type graph_cost = {
  kernels : kernel_cost list;
  total_us : float;
  total_dram_bytes : float;
  num_kernels : int;
}

(* Unit conversions: TFLOPS -> flops/us, GB/s -> bytes/us. *)
let tflops_to_flops_per_us t = t *. 1e6
let gbs_to_bytes_per_us b = b *. 1e3

let rate_for (d : Device.t) (p : Op.prim) =
  match p with
  | Op.Matmul | Op.Concat_matmul -> tflops_to_flops_per_us d.tensor_tflops
  | _ -> tflops_to_flops_per_us d.ew_tflops

(* Compute time of one operator application on one SM. *)
let prim_compute_us d p in_shapes out_shape =
  Op.flops p in_shapes out_shape /. (rate_for d p /. float_of_int d.num_sms)

let thread_graph_compute_us d (tg : Graph.thread_graph) ~in_shapes =
  let shapes = Infer.thread_shapes tg ~inputs:in_shapes in
  let total = ref 0.0 in
  Array.iteri
    (fun i (node : Graph.thread_node) ->
      match node.top with
      | Graph.T_input _ -> ()
      | Graph.T_prim p ->
          let ins = List.map (fun j -> shapes.(j)) node.tins in
          total := !total +. prim_compute_us d p ins shapes.(i))
    tg.tnodes;
  !total

let bytes_of_shape (d : Device.t) s = Shape.numel s * d.elt_bytes

(* Device-memory traffic of an input iterator, with a simple last-level
   cache model: partitioning maps tile the input exactly once (raw =
   unique footprint); replica maps re-read the same bytes from many
   blocks or iterations, which the L2 absorbs when the tensor is small
   enough (half the L2, to account for sharing). This is what lets a
   fused kernel replicate a small activation across 128 blocks without
   paying 128x DRAM traffic, while large K/V re-reads across query heads
   still cost full price (the up-to-7x effect of §8.2). *)
let initer_traffic (d : Device.t) ~tile_bytes ~input_bytes ~blocks ~reps =
  let raw = tile_bytes *. float_of_int blocks *. reps in
  let unique = input_bytes in
  if raw <= unique then raw
  else if unique <= float_of_int d.l2_bytes /. 4.0 then unique
  else raw

(* Cost of a graph-defined (custom) kernel. *)
let graphdef_cost (d : Device.t) (bg : Graph.block_graph) ~kernel_inputs =
  let shapes = Infer.block_shapes bg ~kernel_inputs in
  let post = Graph.post_loop_nodes bg in
  let invariant = Graph.loop_invariant_nodes bg in
  let blocks = Graph.total_blocks bg in
  let iters = Graph.total_iters bg in
  let consumers = Array.make (Array.length bg.bnodes) 0 in
  Array.iter
    (fun (n : Graph.block_node) ->
      List.iter (fun j -> consumers.(j) <- consumers.(j) + 1) n.bins)
    bg.bnodes;
  let dram_bytes = ref 0.0 in
  let per_block_compute = ref 0.0 in
  let per_block_smem = ref 0.0 in
  Array.iteri
    (fun i (node : Graph.block_node) ->
      let reps =
        if post.(i) then 1.0
        else if invariant.(i) then 1.0
        else float_of_int iters
      in
      let out_bytes = float_of_int (bytes_of_shape d shapes.(i)) in
      let in_shapes = List.map (fun j -> shapes.(j)) node.bins in
      match node.bop with
      | Graph.B_initer { input; _ } ->
          (* device -> shared: tile loaded per iteration per block (once
             if invariant), then read from smem by each consumer. *)
          let input_bytes =
            float_of_int
              (bytes_of_shape d (List.nth kernel_inputs input))
          in
          dram_bytes :=
            !dram_bytes
            +. initer_traffic d ~tile_bytes:out_bytes ~input_bytes ~blocks
                 ~reps;
          per_block_smem :=
            !per_block_smem
            +. (out_bytes *. reps *. float_of_int (1 + consumers.(i)))
      | Graph.B_prim (Op.Transpose | Op.Reshape _) ->
          (* strided views inside shared memory: free *)
          ()
      | Graph.B_prim p ->
          per_block_compute :=
            !per_block_compute +. (prim_compute_us d p in_shapes shapes.(i) *. reps);
          per_block_smem :=
            !per_block_smem
            +. (out_bytes *. reps *. float_of_int (1 + consumers.(i)))
      | Graph.B_threadgraph tg ->
          (* Interiors stay in registers: only the fused operator's output
             touches shared memory. *)
          per_block_compute :=
            !per_block_compute
            +. (thread_graph_compute_us d tg ~in_shapes *. reps);
          per_block_smem :=
            !per_block_smem
            +. (out_bytes *. reps *. float_of_int (1 + consumers.(i)))
      | Graph.B_accum { fmap = _ } ->
          (* read-modify-write of the accumulated tile each iteration;
             one add per element. *)
          let adds = float_of_int (Shape.numel shapes.(i)) *. float_of_int iters in
          per_block_compute :=
            !per_block_compute
            +. (adds /. (tflops_to_flops_per_us d.ew_tflops /. float_of_int d.num_sms));
          per_block_smem :=
            !per_block_smem +. (2.0 *. out_bytes *. float_of_int iters)
      | Graph.B_outsaver _ ->
          (* shared -> device: each block writes its disjoint chunk; the
             union of chunks is exactly the kernel-level output. *)
          dram_bytes := !dram_bytes +. float_of_int (bytes_of_shape d shapes.(i)))
    bg.bnodes;
  let waves = float_of_int ((blocks + d.num_sms - 1) / d.num_sms) in
  let compute_us = waves *. !per_block_compute in
  let smem_us =
    waves *. (!per_block_smem /. gbs_to_bytes_per_us d.smem_gb_s_per_sm)
  in
  (* ~75% of the SMs streaming already saturate DRAM bandwidth *)
  let utilization =
    Float.min 1.0
      (float_of_int blocks /. (0.75 *. float_of_int d.num_sms))
  in
  let dram_us =
    !dram_bytes /. (gbs_to_bytes_per_us d.dram_gb_s *. utilization)
  in
  (blocks, compute_us, dram_us, smem_us, !dram_bytes, !per_block_compute)

let kernel_costs (d : Device.t) (g : Graph.kernel_graph) =
  let shapes = Infer.kernel_shapes g in
  let costs = ref [] in
  Array.iteri
    (fun i (node : Graph.kernel_node) ->
      let in_shapes =
        List.map
          (fun ({ node = j; port } : Graph.tensor_ref) -> shapes.(j).(port))
          node.kins
      in
      match node.kop with
      | Graph.K_input _ -> ()
      | Graph.K_prim (Op.Reshape _ | Op.Transpose) ->
          (* metadata-only views: no kernel is launched (PyTorch and
             friends treat these as free stride changes) *)
          ()
      | Graph.K_prim p ->
          let out = shapes.(i).(0) in
          let in_bytes =
            List.fold_left (fun acc s -> acc + bytes_of_shape d s) 0 in_shapes
          in
          let out_bytes = bytes_of_shape d out in
          let flops = Op.flops p in_shapes out in
          (* Library kernels tile their output (~4K elements per thread
             block); small outputs leave SMs idle, partially recovered by
             vendor heuristics such as split-K — hence the utilization
             floor. *)
          let blocks =
            (* output tiling, or split-K style input streaming for
               weight-heavy kernels — whichever exposes more blocks *)
            max
              (max 1 ((Tensor.Shape.numel out + 4095) / 4096))
              (max 1 (in_bytes / 65536))
          in
          let utilization =
            Float.min 1.0
              (Float.max 0.25
                 (float_of_int blocks /. float_of_int d.num_sms))
          in
          let compute_us = flops /. (rate_for d p *. utilization) in
          let dram_bytes = float_of_int (in_bytes + out_bytes) in
          let dram_us =
            dram_bytes /. (gbs_to_bytes_per_us d.dram_gb_s *. utilization)
          in
          let total_us =
            d.kernel_launch_us +. Float.max compute_us dram_us
          in
          costs :=
            {
              node = i;
              kind = Op.to_string p;
              blocks;
              launch_us = d.kernel_launch_us;
              compute_us;
              dram_us;
              smem_us = 0.0;
              total_us;
              dram_bytes;
              flops;
            }
            :: !costs
      | Graph.K_graphdef bg ->
          let blocks, compute_us, dram_us, smem_us, dram_bytes, per_block =
            graphdef_cost d bg ~kernel_inputs:in_shapes
          in
          ignore per_block;
          let total_us =
            d.kernel_launch_us
            +. Float.max compute_us (Float.max dram_us smem_us)
          in
          costs :=
            {
              node = i;
              kind = "custom kernel";
              blocks;
              launch_us = d.kernel_launch_us;
              compute_us;
              dram_us;
              smem_us;
              total_us;
              dram_bytes;
              flops = 0.0;
            }
            :: !costs)
    g.knodes;
  List.rev !costs

let cost d g =
  Obs.Profile.with_phase "gpusim.cost" (fun () ->
      let kernels = kernel_costs d g in
      {
        kernels;
        total_us =
          List.fold_left
            (fun acc (k : kernel_cost) -> acc +. k.total_us)
            0.0 kernels;
        total_dram_bytes =
          List.fold_left
            (fun acc (k : kernel_cost) -> acc +. k.dram_bytes)
            0.0 kernels;
        num_kernels = List.length kernels;
      })

let total_us d g = (cost d g).total_us

let speedup ~baseline c = baseline.total_us /. c.total_us

let kernel_cost_json (k : kernel_cost) =
  Obs.Jsonw.Obj
    [
      ("node", Obs.Jsonw.Int k.node);
      ("kind", Obs.Jsonw.Str k.kind);
      ("blocks", Obs.Jsonw.Int k.blocks);
      ("launch_us", Obs.Jsonw.Float k.launch_us);
      ("compute_us", Obs.Jsonw.Float k.compute_us);
      ("dram_us", Obs.Jsonw.Float k.dram_us);
      ("smem_us", Obs.Jsonw.Float k.smem_us);
      ("total_us", Obs.Jsonw.Float k.total_us);
      ("dram_bytes", Obs.Jsonw.Float k.dram_bytes);
      ("flops", Obs.Jsonw.Float k.flops);
    ]

let to_json (c : graph_cost) =
  Obs.Jsonw.Obj
    [
      ("total_us", Obs.Jsonw.Float c.total_us);
      ("total_dram_bytes", Obs.Jsonw.Float c.total_dram_bytes);
      ("num_kernels", Obs.Jsonw.Int c.num_kernels);
      ("kernels", Obs.Jsonw.List (List.map kernel_cost_json c.kernels));
    ]

let journal_attribution ?cand j (c : graph_cost) =
  List.iter
    (fun (k : kernel_cost) ->
      match kernel_cost_json k with
      | Obs.Jsonw.Obj fields -> Obs.Journal.emit j ?cand ~typ:"cost.kernel" fields
      | _ -> ())
    c.kernels;
  Obs.Journal.emit j ?cand ~typ:"cost.total"
    [
      ("total_us", Obs.Jsonw.Float c.total_us);
      ("total_dram_bytes", Obs.Jsonw.Float c.total_dram_bytes);
      ("num_kernels", Obs.Jsonw.Int c.num_kernels);
    ]
