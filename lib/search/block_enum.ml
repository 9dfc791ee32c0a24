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
  views : int array;
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

(* The bits of a target vector's partitioning entries. *)
let dim_mask targets =
  let m = ref 0 in
  Array.iteri
    (fun k t ->
      match t with Dmap.Dim _ -> m := !m lor (1 lsl k) | Dmap.Replica -> ())
    targets;
  !m

(* One valid input iterator of one input: its (imap, fmap), the number
   of its [initer_view] among the input's distinct views (first seen,
   first numbered), and the grid and loop dims it partitions. *)
type choice = {
  initer : Dmap.imap * Dmap.fmap;
  view : int;
  gmask : int;
  fmask : int;
}

(* An input's valid iterators, imap-major as the target vectors come,
   and its distinct views by number. *)
let choices ~grid ~forloop shape =
  let rank = Shape.rank shape in
  let views = ref [] and n_views = ref 0 and acc = ref [] in
  List.iter
    (fun im ->
      let imap = Array.of_list im in
      if Dmap.valid_imap imap ~grid ~shape then begin
        let sliced = Dmap.slice_shape imap ~counts:grid shape in
        List.iter
          (fun fm ->
            let fmap = Array.of_list fm in
            if Dmap.valid_fmap fmap ~forloop ~shape:sliced then begin
              let v = initer_view ~grid ~forloop shape (imap, fmap) in
              let view =
                match List.assoc_opt v !views with
                | Some id -> id
                | None ->
                    views := (v, !n_views) :: !views;
                    incr n_views;
                    !n_views - 1
              in
              let gmask = dim_mask imap and fmask = dim_mask fmap in
              acc := { initer = (imap, fmap); view; gmask; fmask } :: !acc
            end)
          (target_vectors (Array.length forloop) rank)
      end)
    (target_vectors (Array.length grid) rank);
  (Array.of_list (List.rev !acc), Array.of_list (List.rev_map fst !views))

(* A class being filled: its representative, its inputs' view ids and
   its members so far. *)
type builder = {
  first : root;
  ids : int array;
  mutable ms : (Dmap.imap * Dmap.fmap) array array;
  mutable len : int;
}

let push b initers =
  if b.len = Array.length b.ms then begin
    let ms = Array.make (2 * b.len) initers in
    Array.blit b.ms 0 ms 0 b.len;
    b.ms <- ms
  end;
  b.ms.(b.len) <- initers;
  b.len <- b.len + 1

(* Per (grid, for-loop) pair, the product of the inputs' iterators with
   the first input slowest, walked with an index array. A root's class
   within its pair is the mixed-radix number of its inputs' view ids,
   an index into the pair's class table; a pair that repeats an earlier
   one fills that one's classes. *)
let enumerate_roots (cfg : Config.t) ~input_shapes =
  let shapes = Array.of_list input_shapes in
  let n = Array.length shapes in
  let order = ref [] and tables = ref [] in
  List.iter
    (fun grid ->
      List.iter
        (fun forloop ->
          let per = Array.map (choices ~grid ~forloop) shapes in
          let opts = Array.map fst per
          and radix = Array.map (fun (_, vs) -> Array.length vs) per in
          if Array.for_all (fun o -> Array.length o > 0) opts then begin
            let table =
              match
                List.find_opt
                  (fun (g, f, _) -> g = grid && f = forloop)
                  !tables
              with
              | Some (_, _, t) -> t
              | None ->
                  let t = Array.make (Array.fold_left ( * ) 1 radix) None in
                  tables := (grid, forloop, t) :: !tables;
                  t
            in
            (* every grid dim and loop dim must partition some input *)
            let gfull = (1 lsl Array.length grid) - 1
            and ffull = (1 lsl Array.length forloop) - 1 in
            let idx = Array.make n 0 and more = ref true in
            while !more do
              let g = ref 0 and f = ref 0 and key = ref 0 in
              for i = 0 to n - 1 do
                let c = opts.(i).(idx.(i)) in
                g := !g lor c.gmask;
                f := !f lor c.fmask;
                key := (!key * radix.(i)) + c.view
              done;
              if !g = gfull && !f = ffull then begin
                let initers =
                  Array.init n (fun i -> opts.(i).(idx.(i)).initer)
                in
                match table.(!key) with
                | Some b -> push b initers
                | None ->
                    let b =
                      {
                        first = { grid; forloop; initers };
                        ids = Array.init n (fun i -> opts.(i).(idx.(i)).view);
                        ms = [| initers |];
                        len = 1;
                      }
                    in
                    table.(!key) <- Some b;
                    order := b :: !order
              end;
              let i = ref (n - 1) in
              while !i >= 0 && idx.(!i) = Array.length opts.(!i) - 1 do
                idx.(!i) <- 0;
                decr i
              done;
              if !i < 0 then more := false else idx.(!i) <- idx.(!i) + 1
            done
          end)
        cfg.Config.forloop_candidates)
    cfg.Config.grid_candidates;
  List.rev_map
    (fun b ->
      {
        rep = b.first;
        members = Array.sub b.ms 0 b.len;
        views = b.ids;
      })
    !order

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

let tally stats =
  Tally.level stats ~name:"block"
    Tally.
      [ Shape; Memory; Duplicate; Pruned; Canonical; Phase; Dangling; Unreachable ]

(* One (grid, for-loop) pair's part of a search, made once: the level's
   engine, each input's views as interned values (by view id), and the
   completion of a class's members. *)
type pair = {
  engine : (Graph.block_op, phase, own) Prefix.engine;
  values : value array array;
  complete :
    emit -> (Dmap.imap * Dmap.fmap) array array -> Tally.t -> state -> unit;
}

(* What every root class of one search shares: one [pair] per (grid,
   for-loop) pair of the config. *)
type search = {
  pairs : (int array * int array * pair) list;
  limits : Memory.limits;
}

(* The spec's part of a search, which every pair reads. *)
type spec_info = {
  cfg : Config.t;
  out_shapes : Shape.t list;
  input_shapes : Shape.t list;
  input_names : string list;
  input_nfs : Absexpr.Nf.t array;
}

let initer input (imap, fmap) =
  { Graph.bop = Graph.B_initer { input; imap; fmap }; bins = [] }

let pair { cfg; out_shapes; input_shapes; input_names; input_nfs } ~limits
    ~values ~memo ~budget ~grid ~forloop =
  let n_inputs = Array.length input_nfs in
  let elt_bytes = limits.Memory.elt_bytes in
  let smem_limit = limits.Memory.smem_bytes_per_block in
  let iters = Array.fold_left ( * ) 1 forloop in
  let has_loop = iters > 1 in
  let bytes (v : value) = v.numel * elt_bytes in
  (* omaps reconstructing [target] from per-block [shape]. *)
  let omaps_for shape target =
    let rank = Shape.rank shape in
    let n_grid = Array.length grid in
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
             && Shape.equal (Dmap.scaled_shape omap ~grid shape) target
           then Some omap
           else None)
  in
  let initers_mask = (1 lsl n_inputs) - 1 in
  (* Emit complete candidates from the current prefix, one graph per
     member and output selection. *)
  let complete (emit : emit) members tl (st : state) =
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
                  Graph.grid;
                  forloop;
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
        (Array.map (Array.mapi initer) members)
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
     expression. An accumulator sums its input over the for-loop. *)
  let make op (vs : value list) =
    match op with
    | Graph.B_prim p -> (
        match combined_phase (List.map (fun (v : value) -> v.attrs) vs) with
        | None -> Error Tally.Phase
        | Some phase -> Prefix.prim_value p vs phase)
    | Graph.B_accum _ ->
        let x = List.hd vs in
        Ok (Prefix.value x.shape (Absexpr.Nf.nf_sum iters x.nf) Post)
    | _ -> invalid_arg "Block_enum.make"
  in
  (* The level's memo scope: the for-loop, which [make] and the
     accumulators read, as its first index in the config's candidates. *)
  let scope =
    let rec index i = function
      | [] -> i
      | f :: rest -> if f = forloop then i else index (i + 1) rest
    in
    index 0 cfg.Config.forloop_candidates
  in
  (* A body value's accumulator: the plain sum over the for-loop. *)
  let accumulators (v : value) =
    if has_loop && v.attrs = Body then
      [
        Graph.B_accum
          { fmap = Array.make (Array.length forloop) Dmap.Replica };
      ]
    else []
  in
  let level =
    {
      Prefix.name = "block";
      fault = "enum.block";
      max_ops = cfg.Config.max_block_ops;
      rank_first = false;
      menu = cfg.Config.block_op_menu;
      prim = (fun p -> Graph.B_prim p);
      scope;
      extra = accumulators;
      make;
      admit =
        (fun st v ->
          if st.own.smem + bytes v > smem_limit then Some Tally.Memory
          else None);
      child;
    }
  in
  (* each input's views, interned once for every class of the pair *)
  let values =
    Array.of_list
      (List.mapi
         (fun i shape ->
           Array.map
             (fun (tile, phase) ->
               Prefix.intern values (Prefix.value tile input_nfs.(i) phase))
             (snd (choices ~grid ~forloop shape)))
         input_shapes)
  in
  { engine = Prefix.engine level cfg ~memo ~budget; values; complete }

let prepare (cfg : Config.t) ~spec ~limits ~values ~memo ~budget =
  let input_names = Graph.input_names spec in
  let info =
    {
      cfg;
      out_shapes = Infer.output_shapes spec;
      input_shapes = Graph.input_shapes spec;
      input_names;
      input_nfs = Array.of_list (List.map Absexpr.Nf.nf_var input_names);
    }
  in
  {
    pairs =
      List.concat_map
        (fun grid ->
          List.map
            (fun forloop ->
              ( grid,
                forloop,
                pair info ~limits ~values ~memo ~budget ~grid ~forloop ))
            cfg.Config.forloop_candidates)
        cfg.Config.grid_candidates;
    limits;
  }

let search_root s ?spawn ~(emit : emit) cls =
  let root = cls.rep in
  let _, _, p =
    List.find (fun (g, f, _) -> g = root.grid && f = root.forloop) s.pairs
  in
  (* One input iterator per spec input, the representative's, with its
     view's interned value. *)
  let inputs =
    Array.mapi
      (fun i v ->
        {
          Prefix.op = (initer i root.initers.(i)).Graph.bop;
          ins = [];
          value = p.values.(i).(v);
        })
      cls.views
  in
  let smem0 =
    Array.fold_left
      (fun a (e : entry) -> a + (e.value.numel * s.limits.Memory.elt_bytes))
      0 inputs
  in
  if smem0 <= s.limits.Memory.smem_bytes_per_block then
    Prefix.run p.engine ?spawn ~weight:(Array.length cls.members)
      ~complete:(p.complete emit cls.members)
      inputs
      { smem = smem0; consumed = 0 }
