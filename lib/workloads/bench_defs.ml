open Mugraph
open Baselines

type benchmark = {
  name : string;
  description : string;
  base_arch : string;
  spec : Graph.kernel_graph;
  systems : (string * Graph.kernel_graph) list;
  mirage : Graph.kernel_graph;
  reduced : unit -> Graph.kernel_graph * Graph.kernel_graph;
}

(* LLaMA-3-70B under TP=4: 64/4 = 16 query heads, 8/4 = 2 KV heads per
   GPU, head dim 128 (paper §8.1). Decode: one query token against a
   4096-token KV cache. *)
let gqa ?(batch = 1) () =
  let b = batch and gk = 2 and grp = 8 and s = 4096 and dh = 128 in
  let spec = Templates.attention_spec ~b ~gk ~grp ~s ~dh in
  (* Mirage: blocks = (kv head, kv chunk) with the whole query group in
     one block; the KV split is chosen per scenario so that the grid
     fills the SMs (the §8.2 grid-dimension search). *)
  let split =
    let g = b * gk in
    let rec grow sp = if g * sp >= 128 || sp * 64 >= s then sp else grow (2 * sp) in
    grow 1
  in
  {
    name = "GQA";
    description = "group-query attention (decode)";
    base_arch = "LLaMA-3-70B";
    spec;
    systems =
      [
        ("PyTorch", Templates.attention_unfused ~b ~gk ~grp ~s ~dh);
        ("TASO", Templates.attention_unfused ~b ~gk ~grp ~s ~dh);
        ( "TensorRT-LLM",
          (* fixed heads-only grid: underutilizes at small batch *)
          Templates.attention_fused_heads ~b ~gk ~grp ~s ~dh );
        ( "Triton",
          (* schedule-tuned FlashAttention algorithm, heads-parallel *)
          Templates.attention_fused_heads ~b ~gk ~grp ~s ~dh );
        ( "FlashDecoding",
          (* fixed split-KV heuristic, one query head per block *)
          Templates.attention_fused_split_kv ~b ~gk ~grp ~s ~dh ~split:4
            ~group_in_block:false );
      ];
    mirage =
      Templates.attention_fused_split_kv ~b ~gk ~grp ~s ~dh ~split
        ~group_in_block:true;
    reduced =
      (fun () ->
        ( Templates.attention_spec ~b:2 ~gk:2 ~grp:4 ~s:128 ~dh:8,
          Templates.attention_fused_split_kv ~b:2 ~gk:2 ~grp:4 ~s:128 ~dh:8
            ~split:2 ~group_in_block:true ));
  }

(* Chameleon-7B: 32 multi-head attention heads, head dim 128, decode
   against a 1024-token context. *)
let qknorm () =
  let b = 1 and gk = 32 and grp = 1 and s = 1024 and dh = 128 in
  let spec = Templates.qknorm_attention_spec ~b ~gk ~grp ~s ~dh in
  let unfused = Templates.qknorm_attention_unfused ~b ~gk ~grp ~s ~dh in
  {
    name = "QKNorm";
    description = "QK normalization + attention";
    base_arch = "Chameleon-7B";
    spec;
    systems =
      [
        ("PyTorch", unfused);
        ("TASO", unfused);
        ("TensorRT-LLM", unfused);
        ("Triton", unfused);
        ("FlashAttention", unfused);
      ];
    mirage = Templates.qknorm_attention_fused ~b ~gk ~grp ~s ~dh;
    reduced =
      (fun () ->
        ( Templates.qknorm_attention_spec ~b:1 ~gk:2 ~grp:2 ~s:64 ~dh:8,
          Templates.qknorm_attention_fused ~b:1 ~gk:2 ~grp:2 ~s:64 ~dh:8 ));
  }

(* LLaMA-2-7B RMSNorm + linear, Fig. 4 dimensions. *)
let rmsnorm () =
  let b = 16 and h = 1024 and d = 4096 in
  let spec = Templates.rmsnorm_matmul_spec ~b ~h ~d in
  let unfused = Templates.rmsnorm_matmul_unfused ~b ~h ~d in
  {
    name = "RMSNorm";
    description = "RMS normalization + linear";
    base_arch = "LLaMA-2-7B";
    spec;
    systems =
      [
        ("PyTorch", unfused);
        ("TASO", unfused);
        ("TensorRT", unfused);
        ("Triton", unfused);
      ];
    mirage = Templates.rmsnorm_matmul_fused ~b ~h ~d ~grid:128 ~iters:16;
    reduced =
      (fun () ->
        ( Templates.rmsnorm_matmul_spec ~b:4 ~h:8 ~d:16,
          Templates.rmsnorm_matmul_fused ~b:4 ~h:8 ~d:16 ~grid:2 ~iters:2 ));
  }

(* Rank-16 LoRA on a 4096x4096 linear layer, 16 tokens. *)
let lora () =
  let m = 4096 and k = 4096 and r = 16 and n = 16 in
  let spec = Templates.lora_spec ~m ~k ~r ~n in
  let unfused = Templates.lora_unfused ~m ~k ~r ~n in
  {
    name = "LoRA";
    description = "low-rank adaptation linear";
    base_arch = "GPT-3-7B-LoRA";
    spec;
    systems =
      [
        ("PyTorch", unfused);
        ("TASO", unfused);
        ("TensorRT", unfused);
        ("Triton", unfused);
      ];
    mirage = Templates.lora_fused ~m ~k ~r ~n ~grid:128 ~iters:16;
    reduced =
      (fun () ->
        ( Templates.lora_spec ~m:32 ~k:16 ~r:4 ~n:8,
          Templates.lora_fused ~m:32 ~k:16 ~r:4 ~n:8 ~grid:4 ~iters:2 ));
  }

(* Gated MLP in a scaled Falcon-style configuration (h = 1024,
   ffn = 4096): at full Falcon-7B size the weight streaming dominates
   every plan on the simulator and the comparison degenerates; see
   EXPERIMENTS.md. *)
let gated_mlp () =
  let b = 16 and h = 1024 and f = 4096 in
  let spec = Templates.gated_mlp_spec ~b ~h ~f in
  {
    name = "GatedMLP";
    description = "gated multi-layer perceptron";
    base_arch = "Falcon-7B (scaled)";
    spec;
    systems =
      [
        ("PyTorch", Templates.gated_mlp_unfused ~b ~h ~f);
        ("TASO", Templates.gated_mlp_two_kernel ~b ~h ~f);
        ("TensorRT", Templates.gated_mlp_two_kernel ~b ~h ~f);
        ("Triton", Templates.gated_mlp_two_kernel ~b ~h ~f);
      ];
    mirage = Templates.gated_mlp_fused ~b ~h ~f ~grid:128 ~iters:16;
    reduced =
      (fun () ->
        ( Templates.gated_mlp_spec ~b:4 ~h:16 ~f:32,
          Templates.gated_mlp_fused ~b:4 ~h:16 ~f:32 ~grid:4 ~iters:2 ));
  }

(* nGPT-1B normalized-Transformer residual block: d = 2048, 4096 tokens
   (nGPT targets training, so a full batch of token positions). *)
let ntrans () =
  let b = 4096 and d = 2048 in
  let spec = Templates.ntrans_spec ~b ~d in
  let unfused = Templates.ntrans_unfused ~b ~d in
  {
    name = "nTrans";
    description = "normalized Transformer block";
    base_arch = "nGPT-1B";
    spec;
    systems =
      [
        ("PyTorch", unfused);
        ("TASO", unfused);
        ("TensorRT", unfused);
        ("Triton", unfused);
      ];
    mirage = Templates.ntrans_fused ~b ~d ~grid:1024;
    reduced =
      (fun () ->
        ( Templates.ntrans_spec ~b:4 ~d:32,
          Templates.ntrans_fused ~b:4 ~d:32 ~grid:4 ));
  }

(* Each benchmark's constructor under its name, so a lookup builds only
   the benchmark it names. *)
let by_names =
  [
    ("gqa", fun () -> gqa ());
    ("qknorm", qknorm);
    ("rmsnorm", rmsnorm);
    ("lora", lora);
    ("gatedmlp", gated_mlp);
    ("ntrans", ntrans);
  ]

let all () = List.map (fun (_, make) -> make ()) by_names

let by_name n =
  Option.map
    (fun make -> make ())
    (List.assoc_opt (String.lowercase_ascii n) by_names)
