open Tensor
open Mugraph

type root = {
  grid : int array;
  forloop : int array;
  initers : (Dmap.imap * Dmap.fmap) array;
}

type root_class = {
  rep : root;
  members : (Dmap.imap * Dmap.fmap) array array;
}

type emit = Graph.kernel_graph -> unit

type phase = Body | Inv | Post

(* All that the search reads of an input iterator: the tile it loads and
   its loop phase. The class key and a search's initial entries are both
   built from it, so the two cannot drift apart. *)
let initer_view ~grid ~forloop shape (imap, fmap) =
  let tile =
    Dmap.slice_shape fmap ~counts:forloop
      (Dmap.slice_shape imap ~counts:grid shape)
  in
  let phase =
    if
      Array.fold_left ( * ) 1 forloop <= 1
      || Array.for_all (fun t -> t = Dmap.Replica) fmap
    then Inv
    else Body
  in
  (tile, phase)

(* ------------------------------------------------------------------ *)
(* Root enumeration                                                     *)
(* ------------------------------------------------------------------ *)

(* All target vectors of length [count] over dims of [shape] + Replica. *)
let rec target_vectors count rank =
  if count = 0 then [ [] ]
  else
    let rest = target_vectors (count - 1) rank in
    List.concat_map
      (fun t -> List.map (fun v -> t :: v) rest)
      (Dmap.Replica :: List.init rank (fun d -> Dmap.Dim d))

(* Class keys: grid, for-loop and every input's [initer_view]. The
   default hash stops after 10 meaningful words, about the first tile,
   so it would put most classes in a few buckets. *)
module Class_key = Hashtbl.Make (struct
  type t = int array * int array * (Shape.t * phase) array

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

(* Group [(root, views)] pairs by class key, keeping first-occurrence
   order for the classes and enumeration order within each. *)
let group_classes all =
  let seen = Class_key.create 64 in
  let order = ref [] in
  List.iter
    (fun (r, views) ->
      let key = (r.grid, r.forloop, views) in
      match Class_key.find_opt seen key with
      | Some members -> members := r.initers :: !members
      | None ->
          let members = ref [ r.initers ] in
          Class_key.add seen key members;
          order := (r, members) :: !order)
    all;
  List.rev_map
    (fun (rep, members) -> { rep; members = Array.of_list (List.rev !members) })
    !order

let enumerate_roots (cfg : Config.t) ~input_shapes =
  let shapes = Array.of_list input_shapes in
  List.concat_map
    (fun grid ->
      List.concat_map
        (fun forloop ->
          (* per-input valid (imap, fmap) pairs, each with its view *)
          let per_input =
            Array.to_list
              (Array.map
                 (fun shape ->
                   let rank = Shape.rank shape in
                   List.concat_map
                     (fun im ->
                       let imap = Array.of_list im in
                       if not (Dmap.valid_imap imap ~grid ~shape) then []
                       else
                         let sliced = Dmap.slice_shape imap ~counts:grid shape in
                         List.filter_map
                           (fun fm ->
                             let fmap = Array.of_list fm in
                             if Dmap.valid_fmap fmap ~forloop ~shape:sliced
                             then
                               Some
                                 ( (imap, fmap),
                                   initer_view ~grid ~forloop shape
                                     (imap, fmap) )
                             else None)
                           (target_vectors (Array.length forloop) rank))
                     (target_vectors (Array.length grid) rank))
                 shapes)
          in
          (* cartesian product across inputs *)
          let rec product = function
            | [] -> [ [] ]
            | opts :: rest ->
                let tails = product rest in
                List.concat_map
                  (fun o -> List.map (fun t -> o :: t) tails)
                  opts
          in
          product per_input
          |> List.filter_map (fun assignment ->
                 let initers = Array.of_list (List.map fst assignment) in
                 (* every grid dim and loop dim must partition some input *)
                 let covered proj count =
                   List.init count (fun k ->
                       Array.exists
                         (fun (imap, fmap) ->
                           match proj (imap, fmap) k with
                           | Dmap.Dim _ -> true
                           | Dmap.Replica -> false)
                         initers)
                   |> List.for_all Fun.id
                 in
                 if
                   covered (fun (imap, _) k -> imap.(k)) (Array.length grid)
                   && covered
                        (fun (_, fmap) k -> fmap.(k))
                        (Array.length forloop)
                 then
                   Some
                     ( { grid; forloop; initers },
                       Array.of_list (List.map snd assignment) )
                 else None))
        cfg.Config.forloop_candidates)
    cfg.Config.grid_candidates
  |> group_classes


(* ------------------------------------------------------------------ *)
(* The block level                                                      *)
(* ------------------------------------------------------------------ *)

(* The block level's part of a prefix. *)
type own = {
  smem : int;
  consumed : int;  (** bitmask: entry i has a consumer *)
}

(* A block tensor's attrs are its loop phase. *)
type value = phase Prefix.value
type entry = (Graph.block_op, phase) Prefix.entry
type state = (Graph.block_op, phase, own) Prefix.state

let combined_phase phases =
  if List.exists (fun p -> p = Post) phases then
    if List.for_all (fun p -> p <> Body) phases then Some Post else None
  else if List.for_all (fun p -> p = Inv) phases then Some Inv
  else Some Body

let op_name = function
  | Graph.B_prim p -> Op.to_string p
  | Graph.B_accum { fmap } ->
      if Array.for_all (fun t -> t = Dmap.Replica) fmap then "accum"
      else "accum.concat"
  | _ -> "?"

let tally (cfg : Config.t) stats =
  Tally.level stats ~name:"block" ~max_depth:cfg.Config.max_block_ops
    Tally.
      [ Shape; Memory; Duplicate; Pruned; Canonical; Phase; Dangling; Unreachable ]

(* What every root class of one search shares, made once per search:
   the spec's inputs (shape, name and normal form) and output shapes. *)
type search = {
  cfg : Config.t;
  limits : Memory.limits;
  out_shapes : Shape.t list;
  input_shapes : Shape.t list;
  input_names : string list;
  input_nfs : Absexpr.Nf.t array;
}

let prepare cfg ~spec ~limits =
  let input_names = Graph.input_names spec in
  {
    cfg;
    limits;
    out_shapes = Infer.output_shapes spec;
    input_shapes = Graph.input_shapes spec;
    input_names;
    input_nfs = Array.of_list (List.map Absexpr.Nf.nf_var input_names);
  }

let search_root
    { cfg; limits; out_shapes; input_shapes; input_names; input_nfs }
    ~memo ~budget ?spawn ~(emit : emit) cls =
  let root = cls.rep in
  let n_inputs = Array.length input_nfs in
  let elt_bytes = limits.Memory.elt_bytes in
  let smem_limit = limits.Memory.smem_bytes_per_block in
  let iters = Array.fold_left ( * ) 1 root.forloop in
  let has_loop = iters > 1 in
  let initer input (imap, fmap) =
    { Graph.bop = Graph.B_initer { input; imap; fmap }; bins = [] }
  in
  (* One input iterator per spec input, the representative's. *)
  let inputs =
    List.mapi
      (fun i shape ->
        let tile, phase =
          initer_view ~grid:root.grid ~forloop:root.forloop shape
            root.initers.(i)
        in
        {
          Prefix.op = (initer i root.initers.(i)).Graph.bop;
          ins = [];
          value = Prefix.value tile input_nfs.(i) phase;
        })
      input_shapes
  in
  let bytes (v : value) = v.numel * elt_bytes in
  let smem0 =
    List.fold_left (fun a (e : entry) -> a + bytes e.value) 0 inputs
  in
  (* omaps reconstructing [target] from per-block [shape]. *)
  let omaps_for shape target =
    let rank = Shape.rank shape in
    let n_grid = Array.length root.grid in
    let rec assign k used =
      if k = n_grid then [ [] ]
      else
        List.concat_map
          (fun d ->
            if List.mem d used then []
            else List.map (fun rest -> d :: rest) (assign (k + 1) (d :: used)))
          (List.init rank Fun.id)
    in
    assign 0 []
    |> List.filter_map (fun om ->
           let omap = Array.of_list om in
           if
             Shape.rank shape = Shape.rank target
             && Shape.equal (Dmap.scaled_shape omap ~grid:root.grid shape)
                  target
           then Some omap
           else None)
  in
  let initers_mask = (1 lsl n_inputs) - 1 in
  (* Emit complete candidates from the current prefix. *)
  let complete tl (st : state) =
    (* candidate entries per spec output *)
    let per_output =
      List.mapi
        (fun j target ->
          let found = ref [] in
          for i = Array.length st.entries - 1 downto n_inputs do
            let v = st.entries.(i).value in
            if
              v.goals land (1 lsl j) <> 0
              && ((not has_loop) || v.attrs = Post || v.attrs = Inv)
            then
              found :=
                List.map (fun omap -> (i, omap)) (omaps_for v.shape target)
                @ !found
          done;
          !found)
        out_shapes
    in
    (* every output matched, and every input iterator consumed *)
    if
      List.for_all (fun l -> l <> []) per_output
      && st.own.consumed land initers_mask = initers_mask
    then begin
      let rec combos = function
        | [] -> [ [] ]
        | opts :: rest ->
            let tails = combos rest in
            List.concat_map (fun o -> List.map (fun t -> o :: t) tails) opts
      in
      (* The prefix's operators and the output savers of each selection,
         shared by every member's graph. *)
      let body =
        Array.map
          (fun (e : entry) -> { Graph.bop = e.op; bins = e.ins })
          (Array.sub st.entries n_inputs (Array.length st.entries - n_inputs))
      in
      let savers =
        List.map
          (fun selection ->
            Array.of_list
              (List.map
                 (fun (i, omap) ->
                   { Graph.bop = Graph.B_outsaver { omap }; bins = [ i ] })
                 selection))
          (combos per_output)
      in
      (* Per member, one funnel entry per completing prefix, however many
         output selections it yields — keeps candidates <= accepted
         extensions (each counted once per member), so the funnel
         invariant holds by construction. *)
      Array.iter
        (fun initers ->
          let emitted = ref false in
          List.iter
            (fun saver ->
              let bg =
                {
                  Graph.grid = root.grid;
                  forloop = root.forloop;
                  bnodes = Array.concat [ initers; body; saver ];
                }
              in
              let bld = Graph.Build.create () in
              let ins =
                List.map2
                  (fun name shape -> Graph.Build.input bld name shape)
                  input_names input_shapes
              in
              let outs = Graph.Build.graphdef bld bg ins (Array.length saver) in
              match Graph.Build.finish bld ~outputs:outs with
              | g ->
                  if Memory.check limits g then begin
                    emitted := true;
                    emit g
                  end
              | exception (Graph.Ill_formed _ | Invalid_argument _) -> ())
            savers;
          if !emitted then Tally.candidate tl)
        (* each member's input-iterator nodes, the only part of an
           emitted graph that differs between members *)
        (Array.map (Array.mapi initer) cls.members)
    end
  in
  let n_outputs = List.length out_shapes in
  let max_arity =
    List.fold_left
      (fun acc p -> max acc (Op.arity p))
      2 cfg.Config.block_op_menu
  in
  (* Dead-end bound: every non-output value must eventually be consumed,
     and each future operator consumes at most [max_arity] dangling values
     while producing one. A prefix whose dangling count cannot shrink to
     the number of outputs within the remaining operator budget has no
     completion. *)
  let child (st : state) reads (v : value) =
    let count = Array.length st.entries + 1 in
    let consumed = st.own.consumed lor reads in
    let dangling =
      count - Prefix.popcount (consumed land ((1 lsl count) - 1))
    in
    if
      dangling - n_outputs
      <= (cfg.Config.max_block_ops - (st.ops + 1)) * (max_arity - 1)
    then Ok { smem = st.own.smem + bytes v; consumed }
    else Error Tally.Dangling
  in
  (* A prim's tensor: loop phase, shape inference, then its abstract
     expression. An accumulator sums its input over the for-loop, or
     concatenates it along dim [d] over loop dim [l] when [fmap.(l) = Dim
     d], summing the rest. *)
  let make op (vs : value list) =
    match op with
    | Graph.B_prim p -> (
        match combined_phase (List.map (fun (v : value) -> v.attrs) vs) with
        | None -> Error Tally.Phase
        | Some phase -> Prefix.prim_value p vs phase)
    | Graph.B_accum { fmap } ->
        let x = List.hd vs in
        let shape = ref x.shape and summed = ref iters in
        Array.iteri
          (fun l t ->
            match t with
            | Dmap.Dim d ->
                shape := Shape.scale_dim !shape ~dim:d ~times:root.forloop.(l);
                summed := !summed / root.forloop.(l)
            | Dmap.Replica -> ())
          fmap;
        Ok (Prefix.value !shape (Absexpr.Nf.nf_sum !summed x.nf) Post)
    | _ -> invalid_arg "Block_enum.make"
  in
  (* The level's memo scope: the for-loop, which [make] and the
     accumulators read, as its first index in the config's candidates. *)
  let scope =
    let rec index i = function
      | [] -> i
      | f :: rest -> if f = root.forloop then i else index (i + 1) rest
    in
    index 0 cfg.Config.forloop_candidates
  in
  (* A body value's accumulators: the plain sum, then (when enabled) a
     concatenation along each dim over each loop dim. *)
  let along l d =
    Array.mapi
      (fun l' _ -> if l' = l then Dmap.Dim d else Dmap.Replica)
      root.forloop
  in
  let accumulators (v : value) =
    if not (has_loop && v.attrs = Body) then []
    else
      let concat =
        if not cfg.Config.enable_concat_accum then []
        else
          List.concat_map
            (fun l -> List.init (Shape.rank v.shape) (along l))
            (List.init (Array.length root.forloop) Fun.id)
      in
      List.map
        (fun fmap -> Graph.B_accum { fmap })
        (Array.make (Array.length root.forloop) Dmap.Replica :: concat)
  in
  let level =
    {
      Prefix.name = "block";
      fault = "enum.block";
      max_ops = cfg.Config.max_block_ops;
      weight = Array.length cls.members;
      rank_first = false;
      menu = cfg.Config.block_op_menu;
      prim = (fun p -> Graph.B_prim p);
      op_name;
      scope;
      extra = accumulators;
      make;
      admit =
        (fun st v ->
          if st.own.smem + bytes v > smem_limit then Some Tally.Memory
          else None);
      admit_fields =
        (fun st v ->
          [
            ("smem_bytes", Obs.Jsonw.Int (st.own.smem + bytes v));
            ("smem_limit", Obs.Jsonw.Int smem_limit);
          ]);
      child;
      complete;
    }
  in
  if smem0 <= smem_limit then
    Prefix.search level cfg ~memo ~budget ?spawn inputs
      { smem = smem0; consumed = 0 }
