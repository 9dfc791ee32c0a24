open Tensor
open Mugraph

type root = {
  grid : int array;
  forloop : int array;
  initers : (Dmap.imap * Dmap.fmap) array;
}

type emit = Graph.kernel_graph -> unit

exception Budget_exhausted

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

let enumerate_roots (cfg : Config.t) ~input_shapes =
  let shapes = Array.of_list input_shapes in
  let n_inputs = Array.length shapes in
  List.concat_map
    (fun grid ->
      List.concat_map
        (fun forloop ->
          (* per-input valid (imap, fmap) pairs *)
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
                             then Some (imap, fmap)
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
                 let initers = Array.of_list assignment in
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
                 then Some { grid; forloop; initers }
                 else None))
        cfg.Config.forloop_candidates)
    cfg.Config.grid_candidates
  |> fun roots ->
  ignore n_inputs;
  roots

(* ------------------------------------------------------------------ *)
(* DFS over block-graph prefixes                                        *)
(* ------------------------------------------------------------------ *)

type phase = Body | Inv | Post

type entry = {
  bop : Graph.block_op;
  bins : int list;
  shape : Shape.t;
  nf : Absexpr.Nf.t;  (** abstract expression, pre-normalized *)
  phase : phase;
  bytes : int;
}

type state = {
  entries : entry list;  (** reversed *)
  count : int;
  ops : int;
  smem : int;
  last_rank : Canon.rank option;
  consumed : int;  (** bitmask: entry i has a consumer *)
}

let entry_at st i = List.nth st.entries (st.count - 1 - i)

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

let binary_ops menu =
  List.filter_map
    (fun p -> match p with Op.Binary _ -> Some p | _ -> None)
    menu

let has_matmul menu = List.exists (fun p -> p = Op.Matmul) menu

let search_root (cfg : Config.t) ~spec ~front ~stats ~limits ~budget
    ?(spawn = fun _ -> false) ~(emit : emit) root =
  let input_shapes = Graph.input_shapes spec in
  let input_names = Graph.input_names spec in
  let elt_bytes = limits.Memory.elt_bytes in
  (* Flight recorder, resolved once per root: every attempted extension
     gets a candidate id and an expand event, every rejection names its
     reason. One atomic load per attempt when journaling is off, and no
     Jsonw values are built on the [None] path. *)
  let journal = Obs.Journal.active () in
  let jexpand ~depth op bins =
    match journal with
    | Some j ->
        let id = Obs.Journal.fresh_id j in
        Obs.Journal.emit j ~cand:id ~typ:"cand.expand"
          [
            ("level", Obs.Jsonw.Str "block");
            ("depth", Obs.Jsonw.Int depth);
            ("op", Obs.Jsonw.Str op);
            ("ins", Obs.Jsonw.List (List.map (fun i -> Obs.Jsonw.Int i) bins));
          ];
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
          :: extra)
    | None -> ()
  in
  let jaccept ~depth cand shape nf =
    match journal with
    | Some j ->
        Obs.Journal.emit j ~cand ~typ:"cand.accept"
          [
            ("level", Obs.Jsonw.Str "block");
            ("depth", Obs.Jsonw.Int depth);
            ("shape", Obs.Jsonw.Str (Shape.to_string shape));
            ("expr", Obs.Jsonw.Str (Absexpr.Nf.to_string nf));
          ]
    | None -> ()
  in
  (* Funnel counts, per-depth histograms and the structural-cut counters
     in the search's registry, resolved once per root (mutex) and counted
     per subtree in a domain-owned tally. *)
  let level =
    Tally.level stats ~name:"block" ~max_depth:cfg.Config.max_block_ops
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
  (* Initial state: one input iterator per spec input. *)
  let init_state =
    let entries =
      List.mapi
        (fun i (shape, name) ->
          let imap, fmap = root.initers.(i) in
          let tile =
            Dmap.slice_shape fmap ~counts:root.forloop
              (Dmap.slice_shape imap ~counts:root.grid shape)
          in
          {
            bop = Graph.B_initer { input = i; imap; fmap };
            bins = [];
            shape = tile;
            nf = Absexpr.Nf.nf_var name;
            phase =
              (if
                 (not has_loop)
                 || Array.for_all (fun t -> t = Dmap.Replica) fmap
               then Inv
               else Body);
            bytes = Shape.numel tile * elt_bytes;
          })
        (List.combine input_shapes input_names)
    in
    {
      entries = List.rev entries;
      count = List.length entries;
      ops = 0;
      smem = List.fold_left (fun a e -> a + e.bytes) 0 entries;
      last_rank = None;
      consumed = 0;
    }
  in
  if init_state.smem > limits.Memory.smem_bytes_per_block then ()
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
    (* Emit complete candidates from the current prefix. *)
    let try_complete tl st =
      (* candidate entries per spec output *)
      let per_output =
        List.map
          (fun (nf, target) ->
            List.init st.count (fun i -> (i, entry_at st i))
            |> List.concat_map (fun (i, e) ->
                   let valid_phase =
                     (not has_loop) || e.phase = Post || e.phase = Inv
                   in
                   let is_initer =
                     match e.bop with Graph.B_initer _ -> true | _ -> false
                   in
                   if valid_phase && (not is_initer) && Absexpr.Nf.equal e.nf nf
                   then
                     List.map (fun omap -> (i, omap)) (omaps_for e.shape target)
                   else []))
          spec_outs
      in
      if List.for_all (fun l -> l <> []) per_output then begin
        (* all initers must be consumed *)
        let consumed = Array.make st.count false in
        List.iter
          (fun e -> List.iter (fun j -> consumed.(j) <- true) e.bins)
          st.entries;
        let initers_used =
          List.init st.count (fun i ->
              match (entry_at st i).bop with
              | Graph.B_initer _ -> consumed.(i)
              | _ -> true)
          |> List.for_all Fun.id
        in
        if initers_used then begin
          let rec combos = function
            | [] -> [ [] ]
            | opts :: rest ->
                let tails = combos rest in
                List.concat_map
                  (fun o -> List.map (fun t -> o :: t) tails)
                  opts
          in
          (* One funnel entry per completing prefix, however many output
             selections it yields — keeps candidates <= accepted
             extensions, so the funnel invariant holds by construction. *)
          let emitted = ref false in
          List.iter
            (fun selection ->
              let bnodes =
                Array.of_list
                  (List.rev_map
                     (fun e -> { Graph.bop = e.bop; bins = e.bins })
                     st.entries
                  @ List.map
                      (fun (i, omap) ->
                        { Graph.bop = Graph.B_outsaver { omap }; bins = [ i ] })
                      selection)
              in
              let bg =
                { Graph.grid = root.grid; forloop = root.forloop; bnodes }
              in
              let bld = Graph.Build.create () in
              let ins =
                List.map2
                  (fun name shape -> Graph.Build.input bld name shape)
                  input_names input_shapes
              in
              let outs =
                Graph.Build.graphdef bld bg ins (List.length selection)
              in
              match Graph.Build.finish bld ~outputs:outs with
              | g ->
                  if Memory.check limits g then begin
                    emitted := true;
                    emit g
                  end
              | exception (Graph.Ill_formed _ | Invalid_argument _) -> ())
            (combos per_output);
          if !emitted then Tally.candidate tl
        end
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
    let dangling_ok st =
      let dangling =
        let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1) in
        st.count - popcount (st.consumed land ((1 lsl st.count) - 1))
      in
      let remaining = cfg.Config.max_block_ops - st.ops in
      dangling - n_outputs <= remaining * (max_arity - 1)
    in
    (* One extension: add entry if all checks pass, recurse. *)
    let rec extend tl st =
      budget_check tl;
      try_complete tl st;
      if st.ops < cfg.Config.max_block_ops then begin
        let depth = st.ops in
        (* operator slots below a prefix cut at this depth *)
        let remaining = max 0 (cfg.Config.max_block_ops - st.ops - 1) in
        let moves = gen_moves tl st in
        List.iter
          (fun (cand, bop, bins, shape, nf, phase) ->
            let bytes = Shape.numel shape * elt_bytes in
            let duplicate =
              (* Computing a value with the same abstract expression,
                 shape and phase as an existing one can never help. *)
              List.exists
                (fun e ->
                  e.phase = phase
                  && Shape.equal e.shape shape
                  && Absexpr.Nf.equal e.nf nf)
                st.entries
            in
            if duplicate then begin
              Tally.reject tl Tally.Duplicate ~depth ~remaining;
              jreject ~depth:st.ops cand "duplicate" []
            end
            else if st.smem + bytes > limits.Memory.smem_bytes_per_block then begin
              Tally.reject tl Tally.Memory ~depth ~remaining;
              jreject ~depth:st.ops cand "memory"
                (match journal with
                | Some _ ->
                    [
                      ("smem_bytes", Obs.Jsonw.Int (st.smem + bytes));
                      ( "smem_limit",
                        Obs.Jsonw.Int limits.Memory.smem_bytes_per_block );
                    ]
                | None -> [])
            end
            else if
              Prune.reject_if_pruned cfg tl ~depth ~remaining
                ~jreject:(fun reason extra ->
                  jreject ~depth:st.ops cand reason extra)
                ~journal_live:(journal <> None) nf
            then ()
            else
              let e = { bop; bins; shape; nf; phase; bytes } in
              let st' =
                {
                  entries = e :: st.entries;
                  count = st.count + 1;
                  ops = st.ops + 1;
                  smem = st.smem + bytes;
                  last_rank = Some (Canon.R_block (bins, bop));
                  consumed =
                    List.fold_left (fun m j -> m lor (1 lsl j)) st.consumed bins;
                }
              in
              if dangling_ok st' then begin
                jaccept ~depth:st.ops cand shape nf;
                (* Shallow children root large subtrees — publish those
                   to the pool; recurse inline past the cutoff. *)
                if
                  st'.ops > cfg.Config.steal_depth_cutoff
                  || not
                       (spawn (fun () ->
                            Tally.run level (front ()) (fun tl ->
                                extend tl st')))
                then extend tl st'
              end
              else begin
                Tally.reject tl Tally.Dangling ~depth ~remaining;
                jreject ~depth:st.ops cand "dangling" []
              end)
          moves
      end
    (* All rank-respecting operator instantiations from this prefix.
       Every operator instantiation considered counts as one attempted
       extension (the funnel's [expanded]); it then either fails one
       check — counted under exactly one rejection reason — or becomes a
       move for [extend]. *)
    and gen_moves tl st =
      let depth = st.ops in
      let remaining = max 0 (cfg.Config.max_block_ops - st.ops - 1) in
      let attempt op bins =
        Tally.expand tl ~depth;
        jexpand ~depth op bins
      in
      let rank_ok bop bins =
        match st.last_rank with
        | None -> true
        | Some r -> Canon.compare_rank r (Canon.R_block (bins, bop)) <= 0
      in
      let moves = ref [] in
      let add cand bop bins shape nf phase =
        if rank_ok bop bins then
          moves := (cand, bop, bins, shape, nf, phase) :: !moves
        else begin
          Tally.reject tl Tally.Canonical ~depth ~remaining;
          jreject ~depth:st.ops cand "canonical" []
        end
      in
      let try_prim p bins =
        let ins = List.map (entry_at st) bins in
        let cand = attempt (Op.to_string p) bins in
        match combined_phase (List.map (fun e -> e.phase) ins) with
        | None ->
            Tally.reject tl Tally.Phase ~depth ~remaining;
            jreject ~depth:st.ops cand "phase" []
        | Some phase -> (
            let shapes = List.map (fun e -> e.shape) ins in
            match Op.infer_shape_opt p shapes with
            | Some shape ->
                let nf =
                  Abstract.prim_nf p ~in_shapes:shapes
                    (List.map (fun e -> e.nf) ins)
                in
                add cand (Graph.B_prim p) bins shape nf phase
            | None ->
                Tally.reject tl Tally.Shape ~depth ~remaining;
                jreject ~depth:st.ops cand "shape"
                  (match journal with
                  | Some _ ->
                      [
                        ( "in_shapes",
                          Obs.Jsonw.List
                            (List.map
                               (fun s -> Obs.Jsonw.Str (Shape.to_string s))
                               shapes) );
                      ]
                  | None -> []))
      in
      for i = 0 to st.count - 1 do
        (* unary-like ops (incl. per-dim Sum instances) *)
        let e = entry_at st i in
        List.iter
          (fun p -> try_prim p [ i ])
          (instantiate_unary_like cfg.Config.block_op_menu e.shape);
        (* binary elementwise: commutative ops take i <= j *)
        for j = 0 to st.count - 1 do
          List.iter
            (fun p ->
              match p with
              | Op.Binary (Op.Add | Op.Mul) when i <= j -> try_prim p [ i; j ]
              | Op.Binary Op.Div -> try_prim p [ i; j ]
              | _ -> ())
            (binary_ops cfg.Config.block_op_menu);
          if has_matmul cfg.Config.block_op_menu then
            try_prim Op.Matmul [ i; j ]
        done;
        (* accumulators over loop-varying values *)
        if has_loop && e.phase = Body then begin
          let all_phi =
            Array.make (Array.length root.forloop) Dmap.Replica
          in
          let bop = Graph.B_accum { fmap = all_phi } in
          let cand = attempt "accum" [ i ] in
          add cand bop [ i ] e.shape (Absexpr.Nf.nf_sum iters e.nf) Post;
          if cfg.Config.enable_concat_accum then
            Array.iteri
              (fun l count ->
                Array.iteri
                  (fun d _ ->
                    if e.shape.(d) >= 1 then begin
                      let fmap =
                        Array.mapi
                          (fun l' _ ->
                            if l' = l then Dmap.Dim d else Dmap.Replica)
                          root.forloop
                      in
                      let bop = Graph.B_accum { fmap } in
                      let shape =
                        Shape.scale_dim e.shape ~dim:d ~times:count
                      in
                      (* the phi dims still sum *)
                      let phi_iters =
                        Array.to_list root.forloop
                        |> List.mapi (fun l' c ->
                               if l' = l then 1 else c)
                        |> List.fold_left ( * ) 1
                      in
                      let cand = attempt "accum.concat" [ i ] in
                      add cand bop [ i ] shape
                        (Absexpr.Nf.nf_sum phi_iters e.nf)
                        Post
                    end)
                  e.shape)
              root.forloop
        end
      done;
      List.rev !moves
    in
    (* the tally flushes under this task even when the budget cuts the
       DFS short *)
    Tally.run level (front ()) (fun tl -> extend tl init_state)
  end
