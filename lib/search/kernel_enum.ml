open Tensor
open Mugraph

type entry = {
  kop : Graph.kernel_op;
  kins : Graph.tensor_ref list;
  shape : Shape.t;
  nf : Absexpr.Nf.t;
}

type state = {
  entries : entry list;  (** reversed *)
  count : int;
  ops : int;
  last_rank : Canon.rank option;
}

let entry_at st i = List.nth st.entries (st.count - 1 - i)

let instantiate menu shape =
  List.concat_map
    (fun p ->
      match p with
      | Op.Sum _ ->
          List.init (Shape.rank shape) (fun d ->
              if shape.(d) > 1 then [ Op.Sum { dim = d; group = shape.(d) } ]
              else [])
          |> List.concat
      | Op.Unary _ -> [ p ]
      | _ -> [])
    menu

let search (cfg : Config.t) ~spec ~front ~stats ~limits ~budget
    ?(spawn = fun _ -> false) ~emit () =
  let input_shapes = Graph.input_shapes spec in
  let input_names = Graph.input_names spec in
  (* Flight recorder: resolved once per search; every attempted extension
     gets an id and an expand event, every rejection records its reason.
     One atomic load per attempt when journaling is off. *)
  let journal = Obs.Journal.active () in
  (* Funnel counts and per-depth histograms, registered once per search
     and counted per subtree in a domain-owned tally. *)
  let level =
    Tally.level stats ~name:"kernel" ~max_depth:cfg.Config.max_kernel_ops
      Tally.[ Shape; Duplicate; Pruned; Canonical ]
  in
  let spec_outs =
    List.map2
      (fun e s -> (Absexpr.Nf.of_expr e, s))
      (Abstract.output_exprs spec)
      (Infer.output_shapes spec)
  in
  let budget_check tl =
    Obs.Fault.trip "enum.kernel";
    if Obs.Budget.cancelled budget then raise Block_enum.Budget_exhausted;
    if Obs.Budget.nodes_exceeded budget (Tally.expanded tl) then begin
      Obs.Budget.note budget "node_budget";
      raise Block_enum.Budget_exhausted
    end;
    if Obs.Budget.over_deadline budget then begin
      Obs.Budget.note budget "deadline";
      raise Block_enum.Budget_exhausted
    end
  in
  let init =
    let entries =
      List.map2
        (fun name shape ->
          {
            kop = Graph.K_input { name; shape };
            kins = [];
            shape = Shape.create shape;
            nf = Absexpr.Nf.nf_var name;
          })
        input_names input_shapes
    in
    {
      entries = List.rev entries;
      count = List.length entries;
      ops = 0;
      last_rank = None;
    }
  in
  let try_complete tl st =
    (* every output needs a distinct matching entry (non-input) *)
    let matches =
      List.map
        (fun (nf, target) ->
          List.init st.count (fun i -> (i, entry_at st i))
          |> List.filter_map (fun (i, e) ->
                 match e.kop with
                 | Graph.K_input _ -> None
                 | _ ->
                     if Shape.equal e.shape target && Absexpr.Nf.equal e.nf nf
                     then Some i
                     else None))
        spec_outs
    in
    if List.for_all (fun l -> l <> []) matches then begin
      let outputs =
        List.map (fun l -> { Graph.node = List.hd l; port = 0 }) matches
      in
      let knodes =
        Array.of_list
          (List.rev_map
             (fun e -> { Graph.kop = e.kop; kins = e.kins })
             st.entries)
      in
      match Graph.validate { Graph.knodes; outputs } with
      | () ->
          let g = { Graph.knodes; outputs } in
          if Memory.check limits g then begin
            Tally.candidate tl;
            emit g
          end
      | exception Graph.Ill_formed _ -> ()
    end
  in
  let rec extend tl st =
    budget_check tl;
    try_complete tl st;
    if st.ops < cfg.Config.max_kernel_ops then begin
      let depth = st.ops in
      (* operator slots below a prefix cut at this depth *)
      let remaining = max 0 (cfg.Config.max_kernel_ops - st.ops - 1) in
      let rank_ok kop kins =
        match st.last_rank with
        | None -> true
        | Some r -> Canon.compare_rank r (Canon.R_kernel (kins, kop)) <= 0
      in
      let try_prim p bins =
        let ins = List.map (entry_at st) bins in
        let kins = List.map (fun i -> { Graph.node = i; port = 0 }) bins in
        Tally.expand tl ~depth;
        let cand =
          match journal with
          | Some j ->
              let id = Obs.Journal.fresh_id j in
              Obs.Journal.emit j ~cand:id ~typ:"cand.expand"
                [
                  ("level", Obs.Jsonw.Str "kernel");
                  ("depth", Obs.Jsonw.Int st.ops);
                  ("op", Obs.Jsonw.Str (Op.to_string p));
                  ( "ins",
                    Obs.Jsonw.List (List.map (fun i -> Obs.Jsonw.Int i) bins)
                  );
                ];
              id
          | None -> -1
        in
        let jreject reason extra =
          match journal with
          | Some j ->
              Obs.Journal.emit j ~cand ~typ:"cand.reject"
                (("level", Obs.Jsonw.Str "kernel")
                :: ("depth", Obs.Jsonw.Int st.ops)
                :: ("reason", Obs.Jsonw.Str reason)
                :: extra)
          | None -> ()
        in
        if not (rank_ok (Graph.K_prim p) kins) then begin
          Tally.reject tl Tally.Canonical ~depth ~remaining;
          jreject "canonical" []
        end
        else begin
          let shapes = List.map (fun e -> e.shape) ins in
          match Op.infer_shape_opt p shapes with
          | Some shape ->
              let nf =
                Abstract.prim_nf p ~in_shapes:shapes
                  (List.map (fun e -> e.nf) ins)
              in
              let duplicate =
                List.exists
                  (fun e ->
                    Shape.equal e.shape shape && Absexpr.Nf.equal e.nf nf)
                  st.entries
              in
              if duplicate then begin
                Tally.reject tl Tally.Duplicate ~depth ~remaining;
                jreject "duplicate" []
              end
              else if Prune.query cfg tl nf then
                Prune.reject tl ~depth ~remaining ~jreject
                  ~journal_live:(journal <> None) nf
              else begin
                (match journal with
                | Some j ->
                    Obs.Journal.emit j ~cand ~typ:"cand.accept"
                      [
                        ("level", Obs.Jsonw.Str "kernel");
                        ("depth", Obs.Jsonw.Int st.ops);
                        ("shape", Obs.Jsonw.Str (Shape.to_string shape));
                        ("expr", Obs.Jsonw.Str (Absexpr.Nf.to_string nf));
                      ]
                | None -> ());
                let child =
                  {
                    entries =
                      { kop = Graph.K_prim p; kins; shape; nf } :: st.entries;
                    count = st.count + 1;
                    ops = st.ops + 1;
                    last_rank = Some (Canon.R_kernel (kins, Graph.K_prim p));
                  }
                in
                (* Shallow children root large subtrees — publish those
                   to the pool; recurse inline past the cutoff. *)
                if
                  child.ops > cfg.Config.steal_depth_cutoff
                  || not
                       (spawn (fun () ->
                            Tally.run level (front ()) (fun tl ->
                                extend tl child)))
                then extend tl child
              end
          | None ->
              Tally.reject tl Tally.Shape ~depth ~remaining;
              jreject "shape"
                [
                  ( "in_shapes",
                    Obs.Jsonw.List
                      (List.map
                         (fun s -> Obs.Jsonw.Str (Shape.to_string s))
                         shapes) );
                ]
        end
      in
      for i = 0 to st.count - 1 do
        let e = entry_at st i in
        List.iter
          (fun p -> try_prim p [ i ])
          (instantiate cfg.Config.kernel_op_menu e.shape);
        for j = 0 to st.count - 1 do
          List.iter
            (fun p ->
              match p with
              | Op.Binary (Op.Add | Op.Mul) when i <= j -> try_prim p [ i; j ]
              | Op.Binary Op.Div -> try_prim p [ i; j ]
              | Op.Matmul -> try_prim p [ i; j ]
              | _ -> ())
            cfg.Config.kernel_op_menu
        done
      done
    end
  in
  (* the tally flushes under this task even when the budget cuts the DFS
     short *)
  Tally.run level (front ()) (fun tl -> extend tl init)
