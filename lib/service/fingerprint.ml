(* Canonical content fingerprint of an optimization request: what has to
   be equal for two requests to be guaranteed the same search result.

   The fingerprint covers three things and nothing else:
   - the input kernel graph, α-converted (input tensor names replaced by
     their position) so renaming tensors or reordering nothing changes
     the hash — the search result depends on shapes and structure, never
     on names;
   - the device's numeric parameters (they drive the cost model and the
     shared-memory limit, i.e. both the candidate set and the winner);
     the device *name* is excluded — it is a label, not a semantic
     input;
   - the search-relevant config fields ({!Search.Config.
     search_relevant_json}): budgets, worker counts and the verify-path
     switch are stripped because they change how long the search runs,
     not what it returns.

   The canonical form is a schema-tagged JSON document serialized
   compactly (Jsonw.to_string is deterministic: fields in construction
   order, no insignificant whitespace) and digested with MD5. *)

module J = Obs.Jsonw

let schema = "mirage.service.fingerprint.v3"

type t = string

(* α-conversion: the only names in a kernel graph live on K_input nodes
   (block/thread levels reference inputs positionally already). Replace
   each with its input ordinal so any renaming yields the same canonical
   graph. *)
let canonical_graph (g : Mugraph.Graph.kernel_graph) :
    Mugraph.Graph.kernel_graph =
  let next = ref 0 in
  let knodes =
    Array.map
      (fun (n : Mugraph.Graph.kernel_node) ->
        match n.Mugraph.Graph.kop with
        | Mugraph.Graph.K_input { shape; _ } ->
            let i = !next in
            incr next;
            {
              n with
              Mugraph.Graph.kop =
                Mugraph.Graph.K_input
                  { name = Printf.sprintf "$%d" i; shape };
            }
        | _ -> n)
      g.Mugraph.Graph.knodes
  in
  { g with Mugraph.Graph.knodes }

let device_json (d : Gpusim.Device.t) =
  J.Obj
    [
      ("num_sms", J.Int d.Gpusim.Device.num_sms);
      ("smem_per_sm_bytes", J.Int d.Gpusim.Device.smem_per_sm_bytes);
      ("dmem_bytes", J.Int d.Gpusim.Device.dmem_bytes);
      ("l2_bytes", J.Int d.Gpusim.Device.l2_bytes);
      ("dram_gb_s", J.Float d.Gpusim.Device.dram_gb_s);
      ("smem_gb_s_per_sm", J.Float d.Gpusim.Device.smem_gb_s_per_sm);
      ("tensor_tflops", J.Float d.Gpusim.Device.tensor_tflops);
      ("ew_tflops", J.Float d.Gpusim.Device.ew_tflops);
      ("kernel_launch_us", J.Float d.Gpusim.Device.kernel_launch_us);
      ("elt_bytes", J.Int d.Gpusim.Device.elt_bytes);
    ]

let canonical_json ~(device : Gpusim.Device.t) ~(config : Search.Config.t)
    (g : Mugraph.Graph.kernel_graph) =
  J.Obj
    [
      ("schema", J.Str schema);
      ("graph", Search.Checkpoint.graph_to_json (canonical_graph g));
      ("device", device_json device);
      ("config", Search.Config.search_relevant_json config);
    ]

let make ~device ~config g =
  Digest.to_hex (Digest.string (J.to_string (canonical_json ~device ~config g)))

let to_string fp = fp
let pp fmt fp = Format.pp_print_string fmt fp
