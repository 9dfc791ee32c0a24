(** Roofline-style analytical cost model for muGraphs.

    Each kernel-graph node costs
    [launch + max(compute, dram, smem)] where:
    - {e compute} sums per-operator FLOPs at tensor-core rate for matmuls
      and at the elementwise rate otherwise, scheduled in waves of
      [num_sms] blocks;
    - {e dram} is device-memory traffic over device bandwidth, derated by
      SM utilization when the grid launches fewer blocks than SMs (this
      is what penalizes the fixed grid heuristics of §8.2);
    - {e smem} is per-block shared-memory traffic over per-SM bandwidth
      (thread-graph interiors live in registers and are exempt — the
      benefit of §4.2's rule-based thread fusion).

    Graph-defined kernels charge device traffic per input-iterator tile
    per block per iteration (loop-invariant tiles are loaded once and
    cached in shared memory), so fusing kernels removes both round-trips
    and launch overheads, exactly the effects the paper's optimizations
    exploit. *)

type kernel_cost = {
  node : int;  (** kernel-graph node index *)
  kind : string;  (** operator name or "custom kernel" *)
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

val kernel_costs : Device.t -> Mugraph.Graph.kernel_graph -> kernel_cost list
(** One entry per non-input kernel node, in execution order. *)

val cost : Device.t -> Mugraph.Graph.kernel_graph -> graph_cost
(** Kernels execute sequentially (data dependences between kernels are
    honored through device memory, as on a single CUDA stream). *)

val total_us : Device.t -> Mugraph.Graph.kernel_graph -> float

val speedup : baseline:graph_cost -> graph_cost -> float
(** [baseline.total_us /. candidate.total_us]. *)

val kernel_cost_json : kernel_cost -> Obs.Jsonw.t
val to_json : graph_cost -> Obs.Jsonw.t
(** The full per-operator breakdown as JSON (run-report section). *)

val journal_attribution :
  ?cand:int -> Obs.Journal.t -> graph_cost -> unit
(** Emit one [cost.kernel] journal event per kernel (node, kind, blocks,
    compute/dram/smem/total µs, DRAM bytes, FLOPs) plus a [cost.total]
    summary, tagged with candidate id [cand] — the per-operator cost
    attribution for the search's best candidates. *)
