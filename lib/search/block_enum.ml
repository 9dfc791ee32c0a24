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

exception Budget_exhausted

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
(* DFS over block-graph prefixes                                        *)
(* ------------------------------------------------------------------ *)

type entry = {
  bop : Graph.block_op;
  bins : int list;
  shape : Shape.t;
  nf : Absexpr.Nf.t;  (** abstract expression, pre-normalized *)
  phase : phase;
  bytes : int;
}

(* What an extension's checks said at the prefix that made it, past the
   input-only ones. *)
type verdict = Duplicate | Memory | Pruned | Alive

(* One operator instantiation: made once, at the prefix where its newest
   input appeared, and shared by every descendant of that prefix. *)
type ext = {
  op : Graph.block_op;
  ins : int list;
  rank : Canon.rank;
  born : int;  (** entries in the prefix that made it *)
  made : made;
}

and made =
  | Bad_phase
  | Bad_shape
  | Out_of_order  (** canonical-rank reject where it was made *)
  | Built of entry * verdict

(* The extensions made when entry [k] appeared, one array per cell of the
   generation order. *)
type bundle = {
  unary : ext array;  (** unary-like ops on [k] *)
  col : ext array array;  (** [col.(i)]: binary ops on [(i, k)], [i <= k] *)
  row : ext array array;  (** [row.(j)]: binary ops on [(k, j)], [j < k] *)
  accum : ext array;  (** accumulators on [k] *)
}

type state = {
  entries : entry array;
  table : bundle array;
      (** the bundles already made — the parent's table, empty at the
          root; [extend] makes one for each remaining entry *)
  ops : int;
  smem : int;
  last_rank : Canon.rank option;
  consumed : int;  (** bitmask: entry i has a consumer *)
}

let combined_phase phases =
  if List.exists (fun p -> p = Post) phases then
    if List.for_all (fun p -> p <> Body) phases then Some Post else None
  else if List.for_all (fun p -> p = Inv) phases then Some Inv
  else Some Body

(* Instantiate menu entries against a concrete input shape (Sum becomes a
   full reduction along each dimension). *)
let instantiate_unary_like menu shape =
  List.concat_map
    (fun p ->
      match p with
      | Op.Sum _ ->
          List.init (Shape.rank shape) (fun d ->
              if shape.(d) > 1 then
                [ Op.Sum { dim = d; group = shape.(d) } ]
              else [])
          |> List.concat
      | Op.Unary _ -> [ p ]
      | _ -> [])
    menu

(* The binary-like ops tried on inputs [(i, j)]: commutative ops only
   when [i <= j]. *)
let pair_ops menu ~ordered =
  List.filter
    (fun p ->
      match p with
      | Op.Binary (Op.Add | Op.Mul) -> ordered
      | Op.Binary Op.Div -> true
      | _ -> false)
    menu
  @ if List.mem Op.Matmul menu then [ Op.Matmul ] else []

let op_name = function
  | Graph.B_prim p -> Op.to_string p
  | Graph.B_accum { fmap } ->
      if Array.for_all (fun t -> t = Dmap.Replica) fmap then "accum"
      else "accum.concat"
  | _ -> "?"

(* Whether [e] recomputes a value in [entries] from index [i] on: the
   same abstract expression, shape and phase can never help. *)
let rec recomputes entries i (e : entry) =
  i < Array.length entries
  && ((let x = entries.(i) in
       x.phase = e.phase && Shape.equal x.shape e.shape
       && Absexpr.Nf.equal x.nf e.nf)
     || recomputes entries (i + 1) e)

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let search_root (cfg : Config.t) ~spec ~front ~stats ~limits ~budget
    ?(spawn = fun _ -> false) ~(emit : emit) cls =
  let root = cls.rep in
  let weight = Array.length cls.members in
  let input_shapes = Graph.input_shapes spec in
  let input_names = Graph.input_names spec in
  let n_inputs = List.length input_shapes in
  let elt_bytes = limits.Memory.elt_bytes in
  let smem_limit = limits.Memory.smem_bytes_per_block in
  (* Flight recorder, resolved once per class: every attempted extension
     gets a candidate id and an expand event, every rejection names its
     reason, and each event of a class of k > 1 roots says it stands for
     k tries. One atomic load per attempt when journaling is off, and no
     Jsonw values are built on the [None] path. *)
  let journal = Obs.Journal.active () in
  let jroots =
    if weight > 1 then [ ("roots", Obs.Jsonw.Int weight) ] else []
  in
  let jexpand ~depth x =
    match journal with
    | Some j ->
        let id = Obs.Journal.fresh_id j in
        Obs.Journal.emit j ~cand:id ~typ:"cand.expand"
          ([
            ("level", Obs.Jsonw.Str "block");
            ("depth", Obs.Jsonw.Int depth);
            ("op", Obs.Jsonw.Str (op_name x.op));
            ("ins", Obs.Jsonw.List (List.map (fun i -> Obs.Jsonw.Int i) x.ins));
          ]
          @ jroots);
        id
    | None -> -1
  in
  let jreject ~depth cand reason extra =
    match journal with
    | Some j ->
        Obs.Journal.emit j ~cand ~typ:"cand.reject"
          (("level", Obs.Jsonw.Str "block")
          :: ("depth", Obs.Jsonw.Int depth)
          :: ("reason", Obs.Jsonw.Str reason)
          :: (extra @ jroots))
    | None -> ()
  in
  let jaccept ~depth cand (e : entry) =
    match journal with
    | Some j ->
        Obs.Journal.emit j ~cand ~typ:"cand.accept"
          ([
            ("level", Obs.Jsonw.Str "block");
            ("depth", Obs.Jsonw.Int depth);
            ("shape", Obs.Jsonw.Str (Shape.to_string e.shape));
            ("expr", Obs.Jsonw.Str (Absexpr.Nf.to_string e.nf));
          ]
          @ jroots)
    | None -> ()
  in
  (* Funnel counts, per-depth histograms and the structural-cut counters
     in the search's registry, resolved once per class (mutex) and counted
     per subtree in a domain-owned tally, each try once per member. *)
  let level =
    Tally.level stats ~name:"block" ~max_depth:cfg.Config.max_block_ops
      ~weight
      Tally.[ Shape; Memory; Duplicate; Pruned; Canonical; Phase; Dangling ]
  in
  let iters = Array.fold_left ( * ) 1 root.forloop in
  let has_loop = iters > 1 in
  (* Specification outputs: normal forms and kernel-level shapes. *)
  let spec_outs =
    List.map2
      (fun e s -> (Absexpr.Nf.of_expr e, s))
      (Abstract.output_exprs spec)
      (Infer.output_shapes spec)
  in
  (* Each member's input-iterator nodes, the only part of an emitted
     graph that differs between members. *)
  let member_initers =
    Array.map
      (Array.mapi (fun input (imap, fmap) ->
           { Graph.bop = Graph.B_initer { input; imap; fmap }; bins = [] }))
      cls.members
  in
  (* Initial state: one input iterator per spec input, the
     representative's. *)
  let init_state =
    let entries =
      List.mapi
        (fun i (shape, name) ->
          let tile, phase =
            initer_view ~grid:root.grid ~forloop:root.forloop shape
              root.initers.(i)
          in
          {
            bop = member_initers.(0).(i).Graph.bop;
            bins = [];
            shape = tile;
            nf = Absexpr.Nf.nf_var name;
            phase;
            bytes = Shape.numel tile * elt_bytes;
          })
        (List.combine input_shapes input_names)
    in
    {
      entries = Array.of_list entries;
      table = [||];
      ops = 0;
      smem = List.fold_left (fun a e -> a + e.bytes) 0 entries;
      last_rank = None;
      consumed = 0;
    }
  in
  if init_state.smem > smem_limit then ()
  else begin
    let budget_check tl =
      Obs.Fault.trip "enum.block";
      if Obs.Budget.cancelled budget then raise Budget_exhausted;
      if Obs.Budget.nodes_exceeded budget (Tally.expanded tl) then begin
        Obs.Budget.note budget "node_budget";
        raise Budget_exhausted
      end;
      if Obs.Budget.over_deadline budget then begin
        Obs.Budget.note budget "deadline";
        raise Budget_exhausted
      end
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
              else
                List.map (fun rest -> d :: rest) (assign (k + 1) (d :: used)))
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
    let try_complete tl st =
      (* candidate entries per spec output *)
      let per_output =
        List.map
          (fun (nf, target) ->
            let found = ref [] in
            for i = Array.length st.entries - 1 downto n_inputs do
              let e = st.entries.(i) in
              if
                ((not has_loop) || e.phase = Post || e.phase = Inv)
                && Absexpr.Nf.equal e.nf nf
              then
                found :=
                  List.map (fun omap -> (i, omap)) (omaps_for e.shape target)
                  @ !found
            done;
            !found)
          spec_outs
      in
      (* every output matched, and every input iterator consumed *)
      if
        List.for_all (fun l -> l <> []) per_output
        && st.consumed land initers_mask = initers_mask
      then begin
        let rec combos = function
          | [] -> [ [] ]
          | opts :: rest ->
              let tails = combos rest in
              List.concat_map (fun o -> List.map (fun t -> o :: t) tails) opts
        in
        (* The prefix's operators and the output savers of each
           selection, shared by every member's graph. *)
        let body =
          Array.map
            (fun e -> { Graph.bop = e.bop; bins = e.bins })
            (Array.sub st.entries n_inputs
               (Array.length st.entries - n_inputs))
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
        (* Per member, one funnel entry per completing prefix, however
           many output selections it yields — keeps candidates <=
           accepted extensions (each counted once per member), so the
           funnel invariant holds by construction. *)
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
                let outs =
                  Graph.Build.graphdef bld bg ins (Array.length saver)
                in
                match Graph.Build.finish bld ~outputs:outs with
                | g ->
                    if Memory.check limits g then begin
                      emitted := true;
                      emit g
                    end
                | exception (Graph.Ill_formed _ | Invalid_argument _) -> ())
              savers;
            if !emitted then Tally.candidate tl)
          member_initers
      end
    in
    let n_outputs = List.length spec_outs in
    let max_arity =
      List.fold_left
        (fun acc p -> max acc (Op.arity p))
        2 cfg.Config.block_op_menu
    in
    (* Dead-end bound: every non-output value must eventually be consumed,
       and each future operator consumes at most [max_arity] dangling
       values while producing one. A prefix whose dangling count cannot
       shrink to the number of outputs within the remaining operator
       budget has no completion. *)
    let dangling_ok ~count ~ops consumed =
      let dangling = count - popcount (consumed land ((1 lsl count) - 1)) in
      dangling - n_outputs <= (cfg.Config.max_block_ops - ops) * (max_arity - 1)
    in
    let rank_ok st rank =
      match st.last_rank with
      | None -> true
      | Some r -> Canon.compare_rank r rank <= 0
    in
    (* The checks later entries cannot overturn, run once where an
       extension is made: rank, duplicate, memory and then, for an
       extension that passed those three, the prune query. *)
    let judge tl st rank e =
      if not (rank_ok st rank) then Out_of_order
      else
        Built
          ( e,
            if recomputes st.entries 0 e then Duplicate
            else if st.smem + e.bytes > smem_limit then Memory
            else if Prune.query cfg tl e.nf then Pruned
            else Alive )
    in
    let make_prim tl st p ins =
      let op = Graph.B_prim p in
      let rank = Canon.R_block (ins, op) in
      let xs = List.map (fun i -> st.entries.(i)) ins in
      let made =
        match combined_phase (List.map (fun e -> e.phase) xs) with
        | None -> Bad_phase
        | Some phase -> (
            let shapes = List.map (fun e -> e.shape) xs in
            match Op.infer_shape_opt p shapes with
            | None -> Bad_shape
            | Some shape ->
                let nf =
                  Abstract.prim_nf p ~in_shapes:shapes
                    (List.map (fun e -> e.nf) xs)
                in
                judge tl st rank
                  {
                    bop = op;
                    bins = ins;
                    shape;
                    nf;
                    phase;
                    bytes = Shape.numel shape * elt_bytes;
                  })
      in
      { op; ins; rank; born = Array.length st.entries; made }
    in
    let make_accum tl st k fmap shape nf =
      let op = Graph.B_accum { fmap } in
      let ins = [ k ] in
      let rank = Canon.R_block (ins, op) in
      let e =
        {
          bop = op;
          bins = ins;
          shape;
          nf;
          phase = Post;
          bytes = Shape.numel shape * elt_bytes;
        }
      in
      {
        op;
        ins;
        rank;
        born = Array.length st.entries;
        made = judge tl st rank e;
      }
    in
    let menu = cfg.Config.block_op_menu in
    let ops_ordered = pair_ops menu ~ordered:true in
    let ops_unordered = pair_ops menu ~ordered:false in
    let all_phi = Array.make (Array.length root.forloop) Dmap.Replica in
    (* The bundle of entry [k], made at prefix [st]. *)
    let make_bundle tl st k =
      let e = st.entries.(k) in
      let cell ops ins =
        Array.of_list (List.map (fun p -> make_prim tl st p ins) ops)
      in
      let unary =
        Array.of_list
          (List.map
             (fun p -> make_prim tl st p [ k ])
             (instantiate_unary_like menu e.shape))
      in
      let col = Array.init (k + 1) (fun i -> cell ops_ordered [ i; k ]) in
      let row = Array.init k (fun j -> cell ops_unordered [ k; j ]) in
      let accum =
        if not (has_loop && e.phase = Body) then [||]
        else
          let concat =
            if not cfg.Config.enable_concat_accum then []
            else
              List.concat
                (List.mapi
                   (fun l count ->
                     (* the phi dims still sum *)
                     let phi_iters = iters / count in
                     List.filter_map
                       (fun d ->
                         if e.shape.(d) < 1 then None
                         else
                           let fmap =
                             Array.mapi
                               (fun l' _ ->
                                 if l' = l then Dmap.Dim d else Dmap.Replica)
                               root.forloop
                           in
                           Some
                             (make_accum tl st k fmap
                                (Shape.scale_dim e.shape ~dim:d ~times:count)
                                (Absexpr.Nf.nf_sum phi_iters e.nf)))
                       (List.init (Shape.rank e.shape) Fun.id))
                   (Array.to_list root.forloop))
          in
          Array.of_list
            (make_accum tl st k all_phi e.shape (Absexpr.Nf.nf_sum iters e.nf)
            :: concat)
      in
      { unary; col; row; accum }
    in
    (* One extension: the prefix's table is its parent's plus a bundle
       for the newest entry. Every try in the table is counted (the
       funnel's [expanded]) and either fails one check — counted under
       exactly one rejection reason — or is kept; only then are the kept
       children searched, in the same order. *)
    let rec extend tl st =
      budget_check tl;
      try_complete tl st;
      if st.ops < cfg.Config.max_block_ops then begin
        let depth = st.ops in
        (* operator slots below a prefix cut at this depth *)
        let remaining = max 0 (cfg.Config.max_block_ops - st.ops - 1) in
        let count = Array.length st.entries in
        let known = Array.length st.table in
        let table =
          Array.init count (fun k ->
              if k < known then st.table.(k) else make_bundle tl st k)
        in
        let reject cand reason name extra =
          Tally.reject tl reason ~depth ~remaining;
          jreject ~depth cand name extra
        in
        let kept = ref [] in
        let visit x =
          Tally.expand tl ~depth;
          let cand = jexpand ~depth x in
          match x.made with
          | Bad_phase -> reject cand Tally.Phase "phase" []
          | Bad_shape ->
              reject cand Tally.Shape "shape"
                (match journal with
                | Some _ ->
                    [
                      ( "in_shapes",
                        Obs.Jsonw.List
                          (List.map
                             (fun i ->
                               Obs.Jsonw.Str
                                 (Shape.to_string st.entries.(i).shape))
                             x.ins) );
                    ]
                | None -> [])
          | Out_of_order -> reject cand Tally.Canonical "canonical" []
          | Built (e, verdict) ->
              if not (rank_ok st x.rank) then
                reject cand Tally.Canonical "canonical" []
              else if verdict = Duplicate || recomputes st.entries x.born e then
                reject cand Tally.Duplicate "duplicate" []
              else if verdict = Memory || st.smem + e.bytes > smem_limit then
                reject cand Tally.Memory "memory"
                  (match journal with
                  | Some _ ->
                      [
                        ("smem_bytes", Obs.Jsonw.Int (st.smem + e.bytes));
                        ("smem_limit", Obs.Jsonw.Int smem_limit);
                      ]
                  | None -> [])
              else if verdict = Pruned then
                Prune.reject tl ~depth ~remaining
                  ~jreject:(jreject ~depth cand)
                  ~journal_live:(journal <> None) e.nf
              else
                let consumed =
                  List.fold_left (fun m j -> m lor (1 lsl j)) st.consumed e.bins
                in
                if dangling_ok ~count:(count + 1) ~ops:(st.ops + 1) consumed
                then begin
                  jaccept ~depth cand e;
                  kept :=
                    {
                      entries = Array.append st.entries [| e |];
                      table;
                      ops = st.ops + 1;
                      smem = st.smem + e.bytes;
                      last_rank = Some x.rank;
                      consumed;
                    }
                    :: !kept
                end
                else reject cand Tally.Dangling "dangling" []
        in
        for i = 0 to count - 1 do
          let b = table.(i) in
          Array.iter visit b.unary;
          for j = 0 to count - 1 do
            Array.iter visit
              (if i <= j then table.(j).col.(i) else b.row.(j))
          done;
          Array.iter visit b.accum
        done;
        List.iter
          (fun st' ->
            (* Shallow children root large subtrees — publish those to the
               pool; recurse inline past the cutoff. *)
            if
              st'.ops > cfg.Config.steal_depth_cutoff
              || not
                   (spawn (fun () ->
                        Tally.run level (front ()) (fun tl -> extend tl st')))
            then extend tl st')
          (List.rev !kept)
      end
    in
    (* the tally flushes under this task even when the budget cuts the
       DFS short *)
    Tally.run level (front ()) (fun tl -> extend tl init_state)
  end
