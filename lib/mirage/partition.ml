open Mugraph

type piece = {
  id : int;
  graph : Graph.kernel_graph;
  lax : bool;
  output_names : string list;
}

type t = { pieces : piece list; original : Graph.kernel_graph }

let node_is_lax (node : Graph.kernel_node) =
  match node.kop with
  | Graph.K_input _ -> true
  | Graph.K_prim p -> Op.is_lax p
  | Graph.K_graphdef _ -> true

(* Union-find over node indices. *)
let rec find parent i =
  if parent.(i) = i then i
  else begin
    parent.(i) <- find parent parent.(i);
    parent.(i)
  end

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(ra) <- rb

let partition (g : Graph.kernel_graph) =
  Array.iter
    (fun (n : Graph.kernel_node) ->
      match n.kop with
      | Graph.K_graphdef _ ->
          invalid_arg "Partition.partition: input already contains custom kernels"
      | Graph.K_input _ | Graph.K_prim _ -> ())
    g.knodes;
  let n = Array.length g.knodes in
  let shapes = Infer.kernel_shapes g in
  let is_op i =
    match g.knodes.(i).Graph.kop with Graph.K_input _ -> false | _ -> true
  in
  let lax i = node_is_lax g.knodes.(i) in
  let parent = Array.init n Fun.id in
  (* Merging the components of producer [j] and consumer [i] is unsafe
     when some path between two nodes of the would-be merged component
     passes through a node outside it (e.g. m -> relu(m) -> f(m, relu m):
     the merged component would depend on a component that depends on it,
     and no piece order would exist). Nodes are in topological order, so
     one sweep from the last node down marks every outside operator that
     a member reaches backward through outside operators only; a marked
     node that reads a member closes a new cycle. Existing components are
     acyclic, so these are exactly the new cycles. [reached] is reset by
     the sweep that sets it. *)
  let in_merged ~prod:j ~cons:i =
    let ri = find parent i and rj = find parent j in
    fun k -> is_op k && (let r = find parent k in r = ri || r = rj)
  in
  let reached = Array.make n false in
  let creates_cycle ~prod ~cons =
    let in_merged = in_merged ~prod ~cons in
    let cycle = ref false in
    for k = n - 1 downto 0 do
      let member = in_merged k in
      if member || reached.(k) then begin
        reached.(k) <- false;
        List.iter
          (fun ({ node = l; _ } : Graph.tensor_ref) ->
            if is_op l then
              if in_merged l then (if not member then cycle := true)
              else reached.(l) <- true)
          g.knodes.(k).Graph.kins
      end
    done;
    !cycle
  in
  (* A merge is also refused when some path of the merged component would
     apply exponentiation twice: the piece would not be LAX (Definition
     5.1). [depth k] is the most exponentiations on a path of members
     ending at [k]; members come in topological order, so a member's
     member inputs are set before it. *)
  let depth = Array.make n 0 in
  let too_deep ~prod ~cons =
    let in_merged = in_merged ~prod ~cons in
    let deep = ref false in
    for k = 0 to n - 1 do
      if in_merged k then begin
        let node = g.knodes.(k) in
        let exp =
          match node.kop with Graph.K_prim (Op.Unary Op.Exp) -> 1 | _ -> 0
        in
        depth.(k) <-
          exp
          + List.fold_left
              (fun d ({ node = l; _ } : Graph.tensor_ref) ->
                if in_merged l then max d depth.(l) else d)
              0 node.kins;
        deep := !deep || depth.(k) > 1
      end
    done;
    !deep
  in
  (* merge adjacent LAX operators (when acyclicity and LAX allow) *)
  Array.iteri
    (fun i (node : Graph.kernel_node) ->
      if is_op i && lax i then
        List.iter
          (fun ({ node = j; _ } : Graph.tensor_ref) ->
            if
              is_op j && lax j
              && find parent i <> find parent j
              && not (creates_cycle ~prod:j ~cons:i)
              && not (too_deep ~prod:j ~cons:i)
            then union parent i j)
          node.kins)
    g.knodes;
  (* component representative per operator node *)
  let comp i = find parent i in
  let comp_ids =
    List.init n Fun.id
    |> List.filter is_op
    |> List.map comp
    |> List.sort_uniq Stdlib.compare
  in
  (* which tensors are consumed outside their component or are outputs *)
  let exported = Hashtbl.create 16 in
  Array.iteri
    (fun i (node : Graph.kernel_node) ->
      if is_op i then
        List.iter
          (fun ({ node = j; port } : Graph.tensor_ref) ->
            if is_op j && comp j <> comp i then
              Hashtbl.replace exported (j, port) ())
          node.kins)
    g.knodes;
  List.iter
    (fun ({ node = j; port } : Graph.tensor_ref) ->
      if is_op j then Hashtbl.replace exported (j, port) ())
    g.outputs;
  (* build one piece per component, in dependency (Kahn) order *)
  let comp_nodes c =
    List.init n Fun.id |> List.filter (fun i -> is_op i && comp i = c)
  in
  let comp_deps c =
    comp_nodes c
    |> List.concat_map (fun i -> g.knodes.(i).Graph.kins)
    |> List.filter_map (fun ({ node = j; _ } : Graph.tensor_ref) ->
           if is_op j && comp j <> c then Some (comp j) else None)
    |> List.sort_uniq Stdlib.compare
  in
  let build_piece idx c =
    let members = comp_nodes c in
    let bld = Graph.Build.create () in
    (* map from original tensor_ref to new ref *)
    let mapping = Hashtbl.create 16 in
    let input_of ({ node = j; port } : Graph.tensor_ref) =
      match Hashtbl.find_opt mapping (j, port) with
      | Some r -> r
      | None ->
          let name =
            match g.knodes.(j).Graph.kop with
            | Graph.K_input { name; _ } -> name
            | _ -> Printf.sprintf "t%d_%d" j port
          in
          let r = Graph.Build.input bld name shapes.(j).(port) in
          Hashtbl.replace mapping (j, port) r;
          r
    in
    List.iter
      (fun i ->
        let node = g.knodes.(i) in
        let ins =
          List.map
            (fun ({ node = j; port } as tr : Graph.tensor_ref) ->
              if is_op j && comp j = c then Hashtbl.find mapping (j, port)
              else input_of tr)
            node.Graph.kins
        in
        match node.Graph.kop with
        | Graph.K_prim p ->
            let r = Graph.Build.prim bld p ins in
            Hashtbl.replace mapping (i, 0) r
        | Graph.K_input _ | Graph.K_graphdef _ -> assert false)
      members;
    let exported_members =
      List.filter (fun i -> Hashtbl.mem exported (i, 0)) members
    in
    let exported_members =
      (* a component whose results are all internal (possible only for
         dead code) still needs an output to be a valid graph *)
      if exported_members = [] then [ List.hd (List.rev members) ]
      else exported_members
    in
    let outputs =
      List.map (fun i -> Hashtbl.find mapping (i, 0)) exported_members
    in
    {
      id = idx;
      graph = Graph.Build.finish bld ~outputs;
      lax = List.for_all lax members;
      output_names =
        List.map (fun i -> Printf.sprintf "t%d_0" i) exported_members;
    }
  in
  (* Kahn order over components *)
  let remaining = ref comp_ids in
  let done_ = Hashtbl.create 8 in
  let order = ref [] in
  while !remaining <> [] do
    let ready, blocked =
      List.partition
        (fun c -> List.for_all (Hashtbl.mem done_) (comp_deps c))
        !remaining
    in
    assert (ready <> []);
    List.iter
      (fun c ->
        order := c :: !order;
        Hashtbl.replace done_ c ())
      ready;
    remaining := blocked
  done;
  let pieces = List.rev !order |> List.mapi build_piece in
  { pieces; original = g }

let num_lax_pieces t =
  List.length (List.filter (fun p -> p.lax) t.pieces)

let total_cost device t ~replacements =
  List.map
    (fun p ->
      let g =
        match List.assoc_opt p.id replacements with
        | Some g' -> g'
        | None -> p.graph
      in
      Gpusim.Cost.cost device g)
    t.pieces
