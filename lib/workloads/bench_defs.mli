(** The six DNN benchmarks of paper Table 4, each with the execution plan
    every compared system would produce (paper §8.2 / Figure 7).

    A plan is a complete muGraph; all systems are costed by the same
    simulator and all fused plans are verified equivalent to the
    specification by the test suite (at reduced dimensions — the plans
    are dimension-uniform templates). *)

open Mugraph

type benchmark = {
  name : string;
  description : string;
  base_arch : string;  (** Table 4 column 3 *)
  spec : Graph.kernel_graph;
  systems : (string * Graph.kernel_graph) list;
      (** baseline plans, in Figure 7's legend order *)
  mirage : Graph.kernel_graph;  (** the Mirage-discovered muGraph *)
  reduced : unit -> Graph.kernel_graph * Graph.kernel_graph;
      (** (spec, mirage plan) at reduced dims for equivalence tests *)
}

val gqa : ?batch:int -> unit -> benchmark
(** Group-query attention, LLaMA-3-70B decode under 4-way tensor
    parallelism: 16 query heads and 2 KV heads per GPU, head dim 128,
    context 4096 (paper §8.1). Default batch 1. *)

val qknorm : unit -> benchmark
(** Query-key normalization + attention, Chameleon-7B (32 MHA heads). *)

val rmsnorm : unit -> benchmark
(** RMSNorm + linear, LLaMA-2-7B (the §3 case study, Fig. 4 dims). *)

val lora : unit -> benchmark
(** Low-rank adaptation, rank 16 (Fig. 9). *)

val gated_mlp : unit -> benchmark
(** Gated MLP, Falcon-7B (h = 4544, ffn = 18176; Fig. 10). *)

val ntrans : unit -> benchmark
(** Normalized Transformer block of nGPT-1B (d = 2048). *)

val all : unit -> benchmark list
(** The Figure 7 benchmark set (GQA at batch 1). *)

val by_name : string -> benchmark option
(** The benchmark whose [name] matches, ignoring case; only that one is
    built. *)
