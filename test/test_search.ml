(* Tests for the expression-guided generator (paper §4, Algorithm 1):
   root enumeration, thread fusion, pruning behavior, and end-to-end
   discovery of fused muGraphs on small problems. *)

open Mugraph

let prim bld p ins = Graph.Build.prim bld p ins

let div_matmul_spec ~b ~h ~d =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| b; h |] in
  let c = Graph.Build.input bld "C" [| b; 1 |] in
  let w = Graph.Build.input bld "W" [| h; d |] in
  let y = prim bld (Op.Binary Op.Div) [ x; c ] in
  let z = prim bld Op.Matmul [ y; w ] in
  Graph.Build.finish bld ~outputs:[ z ]

let small_config ?(ops = 4) ?(pruning = true) () =
  {
    Search.Config.default with
    Search.Config.grid_candidates = [ [| 2 |] ];
    forloop_candidates = [ [| 2 |] ];
    max_block_ops = ops;
    num_workers = 1;
    use_abstract_pruning = pruning;
    time_budget_s = 90.0;
  }

(* [Generator.generate]'s candidates of a search that must complete. *)
let generate ?(workers = 1) cfg spec =
  let cfg = { cfg with Search.Config.num_workers = workers } in
  let solver = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
  let stats = Search.Stats.create () in
  let cands, exhausted, crashes =
    Search.Generator.generate cfg ~spec ~solver ~stats
      ~limits:(Gpusim.Device.limits Gpusim.Device.a100)
      ~budget:(Search.Budget.of_config cfg) ()
  in
  Alcotest.(check bool) "ran to completion" false (exhausted || crashes > 0);
  (List.map snd cands, stats)

(* A reduced Fig. 7 workload's LAX piece. *)
let lax_piece name =
  let b = Option.get (Workloads.Bench_defs.by_name name) in
  let spec, _ = b.Workloads.Bench_defs.reduced () in
  (List.find
     (fun (p : Mirage.Partition.piece) -> p.Mirage.Partition.lax)
     (Mirage.Partition.partition spec).Mirage.Partition.pieces)
    .Mirage.Partition.graph

(* --- config derivation --------------------------------------------------- *)

let test_config_menu_derivation () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg = Search.Config.for_spec spec in
  let has p = List.mem p cfg.Search.Config.block_op_menu in
  Alcotest.(check bool) "div kept" true (has (Op.Binary Op.Div));
  Alcotest.(check bool) "matmul kept" true (has Op.Matmul);
  Alcotest.(check bool) "exp dropped" false (has (Op.Unary Op.Exp));
  Alcotest.(check bool) "sqrt dropped" false (has (Op.Unary Op.Sqrt));
  Alcotest.(check bool) "add dropped (single-term goal)" false
    (has (Op.Binary Op.Add));
  Alcotest.(check bool) "sub dropped" false (has (Op.Binary Op.Sub))

let test_config_keeps_add_for_sums () =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 4; 4 |] in
  let y = Graph.Build.input bld "Y" [| 4; 4 |] in
  let s = prim bld (Op.Binary Op.Add) [ x; y ] in
  let spec = Graph.Build.finish bld ~outputs:[ s ] in
  let cfg = Search.Config.for_spec spec in
  Alcotest.(check bool) "add kept" true
    (List.mem (Op.Binary Op.Add) cfg.Search.Config.block_op_menu)

(* --- root enumeration ----------------------------------------------------- *)

(* A class's members, as roots, in enumeration order. *)
let members (c : Search.Block_enum.root_class) =
  Array.to_list
    (Array.map
       (fun initers -> { c.Search.Block_enum.rep with initers })
       c.Search.Block_enum.members)

(* Every member of every class. *)
let all_roots cfg spec =
  List.concat_map members
    (Search.Block_enum.enumerate_roots cfg
       ~input_shapes:(Graph.input_shapes spec))

let test_roots_validity () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg = small_config () in
  let roots = all_roots cfg spec in
  Alcotest.(check bool) "some roots" true (List.length roots > 0);
  List.iter
    (fun (r : Search.Block_enum.root) ->
      Alcotest.(check int) "one iterator per input" 3
        (Array.length r.Search.Block_enum.initers);
      (* every grid dim partitions at least one input *)
      Array.iteri
        (fun gdim _ ->
          Alcotest.(check bool) "grid dim covered" true
            (Array.exists
               (fun (imap, _) ->
                 match imap.(gdim) with
                 | Dmap.Dim _ -> true
                 | Dmap.Replica -> false)
               r.Search.Block_enum.initers))
        r.Search.Block_enum.grid)
    roots

let test_roots_divisibility () =
  (* C has shape [4,1]: its dim 1 cannot be split in 2 *)
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg = small_config () in
  List.iter
    (fun (r : Search.Block_enum.root) ->
      let imap_c, _ = r.Search.Block_enum.initers.(1) in
      match imap_c.(0) with
      | Dmap.Dim 1 -> Alcotest.fail "split a size-1 dimension"
      | _ -> ())
    (all_roots cfg spec)

(* The classes partition the per-root enumeration: flattened, their
   members are exactly the 289 roots the enumerator produced before it
   grouped them (digest of that list, sorted, recorded then), and every
   member loads the representative's tiles with its loop phases. *)
let test_root_classes () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg = small_config () in
  let classes =
    Search.Block_enum.enumerate_roots cfg
      ~input_shapes:(Graph.input_shapes spec)
  in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let render (r : Search.Block_enum.root) =
    Printf.sprintf "%s|%s|%s" (ints r.Search.Block_enum.grid)
      (ints r.Search.Block_enum.forloop)
      (String.concat ";"
         (Array.to_list
            (Array.map
               (fun (im, fm) ->
                 Dmap.imap_to_string im ^ "/" ^ Dmap.fmap_to_string fm)
               r.Search.Block_enum.initers)))
  in
  let flat = List.concat_map members classes in
  Alcotest.(check int) "289 roots" 289 (List.length flat);
  Alcotest.(check string) "the pre-change root list"
    "689a9c20d3ffc721955978958957f49c"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n" (List.sort compare (List.map render flat)))));
  Alcotest.(check bool) "fewer classes than roots" true
    (List.length classes < List.length flat);
  let shapes = Array.of_list (Graph.input_shapes spec) in
  let view (r : Search.Block_enum.root) =
    Array.mapi
      (fun i (imap, fmap) ->
        ( Dmap.slice_shape fmap ~counts:r.Search.Block_enum.forloop
            (Dmap.slice_shape imap ~counts:r.Search.Block_enum.grid shapes.(i)),
          Array.for_all (fun t -> t = Dmap.Replica) fmap ))
      r.Search.Block_enum.initers
  in
  List.iter
    (fun (c : Search.Block_enum.root_class) ->
      let rep = c.Search.Block_enum.rep in
      Alcotest.(check bool) "the representative is the first member" true
        (c.Search.Block_enum.members.(0) == rep.Search.Block_enum.initers);
      List.iter
        (fun (r : Search.Block_enum.root) ->
          Alcotest.(check bool) "a member's tiles and phases" true
            (view r = view rep))
        (members c))
    classes

(* A class emits a graph for every member: on div_matmul_spec at 3 block
   ops, 62 block-level candidates come from classes of two roots, half of
   them from the non-representative member. The candidate set, its
   digest and the funnel's counts are the values recorded when each root
   was searched separately. *)
let test_root_classes_emit_members () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  List.iter
    (fun workers ->
      let cfg =
        Search.Config.for_spec
          ~base:
            { (small_config ~ops:3 ()) with Search.Config.num_workers = workers }
          spec
      in
      let solver = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
      let stats = Search.Stats.create () in
      let cands, exhausted, _ =
        Search.Generator.generate cfg ~spec ~solver ~stats
          ~limits:(Gpusim.Device.limits Gpusim.Device.a100)
          ~budget:(Search.Budget.of_config cfg) ()
      in
      let name = Printf.sprintf "%d worker(s): " workers in
      let s = Search.Stats.snapshot stats in
      Alcotest.(check bool) (name ^ "ran to completion") false exhausted;
      Alcotest.(check (list int))
        (name ^ "expanded, candidates, duplicates")
        [ 412_446; 157; 5520 ]
        [
          s.Search.Stats.expanded;
          s.Search.Stats.candidates;
          s.Search.Stats.duplicates;
        ];
      Alcotest.(check int) (name ^ "candidate graphs") 157 (List.length cands);
      Alcotest.(check string) (name ^ "candidate hashes")
        "0b3880a036127ac7673c808754a9692d"
        (Digest.to_hex
           (Digest.string
              (String.concat ","
                 (List.map string_of_int
                    (List.sort compare
                       (List.map (fun (_, g) -> Graph.hash g) cands)))))))
    [ 1; 2 ]

(* The list-based root enumerator that [Block_enum.enumerate_roots]
   replaced, kept as its oracle: per (grid, for-loop) pair each input's
   valid (imap, fmap) pairs with their views, their cartesian product
   (walked as a sequence, so the oracle holds no more than its result),
   the coverage filter, then grouping under a structural key of grid,
   for-loop and views, classes in first-member order. *)
module Old_roots = struct
  open Tensor

  type phase = Body | Inv

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

  let rec target_vectors count rank =
    if count = 0 then [ [] ]
    else
      let rest = target_vectors (count - 1) rank in
      List.concat_map
        (fun t -> List.map (fun v -> t :: v) rest)
        (Dmap.Replica :: List.init rank (fun d -> Dmap.Dim d))

  module Class_key = Hashtbl.Make (struct
    type t = int array * int array * (Shape.t * phase) array

    let equal = ( = )
    let hash = Hashtbl.hash_param 64 256
  end)

  (* (representative, members) per class *)
  let group_classes all =
    let seen = Class_key.create 64 in
    let order = ref [] in
    Seq.iter
      (fun ((r : Search.Block_enum.root), views) ->
        let key = (r.grid, r.forloop, views) in
        match Class_key.find_opt seen key with
        | Some members -> members := r.initers :: !members
        | None ->
            let members = ref [ r.initers ] in
            Class_key.add seen key members;
            order := (r, members) :: !order)
      all;
    List.rev_map
      (fun (rep, members) -> (rep, Array.of_list (List.rev !members)))
      !order

  let enumerate_roots (cfg : Search.Config.t) ~input_shapes =
    let shapes = Array.of_list input_shapes in
    Seq.concat_map
      (fun grid ->
        Seq.concat_map
          (fun forloop ->
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
                                     initer_view ~grid ~forloop shape (imap, fmap) )
                               else None)
                             (target_vectors (Array.length forloop) rank))
                       (target_vectors (Array.length grid) rank))
                   shapes)
            in
            let rec product = function
              | [] -> Seq.return []
              | opts :: rest ->
                  Seq.concat_map
                    (fun o -> Seq.map (fun t -> o :: t) (product rest))
                    (List.to_seq opts)
            in
            product per_input
            |> Seq.filter_map (fun assignment ->
                   let initers = Array.of_list (List.map fst assignment) in
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
                       ( { Search.Block_enum.grid; forloop; initers },
                         Array.of_list (List.map snd assignment) )
                   else None))
          (List.to_seq cfg.Search.Config.forloop_candidates))
      (List.to_seq cfg.Search.Config.grid_candidates)
    |> group_classes
end

(* The index-array enumerator gives the oracle's classes, members,
   member order and class order for the six reduced Fig. 7 pieces on
   three menus: search_fig7's (grid {2}, loop {2}), the default's as
   [Config.for_spec] derives it, and grids {2}, {4}, {2, 2} x loops
   {1}, {2}, {4}, where GQA has 100 594 classes of 2 693 739 roots and
   LoRA 111 553 of 1 342 137. *)
let test_root_classes_oracle () =
  let menus =
    [
      ( "search_fig7",
        {
          Search.Config.default with
          Search.Config.grid_candidates = [ [| 2 |] ];
          forloop_candidates = [ [| 2 |] ];
        } );
      ("default", Search.Config.default);
      ( "3x3",
        {
          Search.Config.default with
          Search.Config.grid_candidates = [ [| 2 |]; [| 4 |]; [| 2; 2 |] ];
          forloop_candidates = [ [| 1 |]; [| 2 |]; [| 4 |] ];
        } );
    ]
  in
  let counts =
    [ (("3x3", "GQA"), (100_594, 2_693_739)); (("3x3", "LoRA"), (111_553, 1_342_137)) ]
  in
  (* GQA's 3 x 3 menu holds millions of roots on both sides: collect
     sooner, so the heap stays near what is live *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.space_overhead = 40 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  List.iter
    (fun (menu, base) ->
      List.iter
        (fun (b : Workloads.Bench_defs.benchmark) ->
          let name = b.Workloads.Bench_defs.name in
          let spec = lax_piece name in
          let cfg = Search.Config.for_spec ~base spec in
          let input_shapes = Graph.input_shapes spec in
          let label = Printf.sprintf "%s on %s: " name menu in
          (* the whole menu's classes, compared with the oracle one
             (grid, for-loop) pair at a time, since no class spans two
             pairs: the oracle's classes of a menu are its pairs'
             classes in pair order. Only the unchecked rest is kept. *)
          let rest =
            ref
              (List.map
                 (fun (c : Search.Block_enum.root_class) ->
                   (c.Search.Block_enum.rep, c.Search.Block_enum.members))
                 (Search.Block_enum.enumerate_roots cfg ~input_shapes))
          in
          (match List.assoc_opt (menu, name) counts with
          | Some (n_classes, n_roots) ->
              Alcotest.(check (pair int int)) (label ^ "classes and roots")
                (n_classes, n_roots)
                ( List.length !rest,
                  List.fold_left (fun a (_, m) -> a + Array.length m) 0 !rest )
          | None -> ());
          List.iter
            (fun grid ->
              List.iter
                (fun forloop ->
                  let pair =
                    {
                      cfg with
                      Search.Config.grid_candidates = [ grid ];
                      forloop_candidates = [ forloop ];
                    }
                  in
                  List.iter
                    (fun expected ->
                      match !rest with
                      | c :: tl ->
                          if c <> expected then
                            Alcotest.fail (label ^ "a class differs from the oracle's");
                          rest := tl
                      | [] -> Alcotest.fail (label ^ "fewer classes than the oracle's"))
                    (Old_roots.enumerate_roots pair ~input_shapes))
                cfg.Search.Config.forloop_candidates)
            cfg.Search.Config.grid_candidates;
          Alcotest.(check int) (label ^ "no class past the oracle's") 0
            (List.length !rest))
        (Workloads.Bench_defs.all ()))
    menus

(* --- thread fusion --------------------------------------------------------- *)

let test_thread_fusion () =
  let fused =
    Search.Thread_fuse.fuse_kernel
      (Baselines.Templates.ntrans_fused ~b:4 ~d:32 ~grid:4)
  in
  Alcotest.(check bool) "some ops fused into thread graphs" true
    (Search.Thread_fuse.fused_op_count fused > 0);
  (* function is preserved *)
  let spec = Baselines.Templates.ntrans_spec ~b:4 ~d:32 in
  Alcotest.(check string) "still equivalent" "equivalent"
    (Verify.Random_test.to_string
       (Verify.Random_test.equivalent ~trials:2 ~spec fused))

let test_thread_fusion_skips_matmul () =
  let g =
    Search.Thread_fuse.fuse_kernel
      (Baselines.Templates.lora_fused ~m:32 ~k:16 ~r:4 ~n:8 ~grid:4 ~iters:2)
  in
  (* matmuls must remain block-level operators *)
  let matmuls = ref 0 in
  Array.iter
    (fun (node : Graph.kernel_node) ->
      match node.Graph.kop with
      | Graph.K_graphdef bg ->
          Array.iter
            (fun (bn : Graph.block_node) ->
              match bn.Graph.bop with
              | Graph.B_prim Op.Matmul -> incr matmuls
              | _ -> ())
            bg.Graph.bnodes
      | _ -> ())
    g.Graph.knodes;
  Alcotest.(check int) "3 block-level matmuls" 3 !matmuls

(* --- end-to-end search ------------------------------------------------------ *)

let test_search_discovers_fused_kernel () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg = Search.Config.for_spec ~base:(small_config ()) spec in
  let o =
    Search.Generator.run ~config:cfg ~device:Gpusim.Device.a100 ~spec ()
  in
  match o.Search.Generator.best with
  | Some r ->
      Alcotest.(check bool) "found a single fused kernel" true
        (r.Search.Generator.cost.Gpusim.Cost.num_kernels = 1);
      Alcotest.(check bool) "cheaper than spec" true
        (r.Search.Generator.cost.Gpusim.Cost.total_us
        < (Gpusim.Cost.cost Gpusim.Device.a100 spec).Gpusim.Cost.total_us);
      (* and it is genuinely equivalent *)
      Alcotest.(check string) "verified" "equivalent"
        (Verify.Random_test.to_string
           (Verify.Random_test.equivalent ~trials:3 ~spec
              r.Search.Generator.graph))
  | None -> Alcotest.fail "search found nothing"

let test_search_kernel_level_rewrite () =
  (* X*Z + Y*Z: the kernel-level enumerator must find (X+Y)*Z, which has
     one fewer operator (TASO-style algebraic rewrite). *)
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 8; 8 |] in
  let y = Graph.Build.input bld "Y" [| 8; 8 |] in
  let z = Graph.Build.input bld "Z" [| 8; 8 |] in
  let xz = prim bld (Op.Binary Op.Mul) [ x; z ] in
  let yz = prim bld (Op.Binary Op.Mul) [ y; z ] in
  let s = prim bld (Op.Binary Op.Add) [ xz; yz ] in
  let spec = Graph.Build.finish bld ~outputs:[ s ] in
  let cfg =
    Search.Config.for_spec
      ~base:
        {
          (small_config ~ops:3 ()) with
          Search.Config.grid_candidates = [];
          forloop_candidates = [];
          max_kernel_ops = 3;
        }
      spec
  in
  let cands, _ = generate cfg spec in
  let found_two_op =
    List.exists
      (fun g ->
        Graph.kernel_op_count g = 2
        && Verify.Random_test.equivalent ~spec g = Verify.Random_test.Equivalent)
      cands
  in
  Alcotest.(check bool) "found (X+Y)*Z, and it verifies" true found_two_op

(* Pruning shrinks the search, counted in tries rather than timed: the
   pruned search completes after [n] tries, and the unpruned one, given
   a node budget of [n] (exact at one worker), runs out of it. *)
let test_pruning_reduces_search () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let config pruning =
    Search.Config.for_spec ~base:(small_config ~ops:3 ~pruning ()) spec
  in
  let stats = Search.Stats.create () in
  let _, exhausted =
    Search.Generator.search_time ~config:(config true) ~stats ~spec ()
  in
  Alcotest.(check bool) "the pruned search completes" false exhausted;
  let n = Search.Stats.expanded stats in
  let _, exhausted =
    Search.Generator.search_time
      ~config:{ (config false) with Search.Config.node_budget = n }
      ~spec ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "the unpruned search needs more than %d tries" n)
    true exhausted

let test_budget_respected () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg =
    {
      (Search.Config.for_spec ~base:(small_config ~ops:8 ()) spec) with
      Search.Config.time_budget_s = 0.3;
    }
  in
  let t, exhausted = Search.Generator.search_time ~config:cfg ~spec () in
  Alcotest.(check bool) "stopped quickly" true (t < 5.0);
  Alcotest.(check bool) "reported exhaustion" true exhausted

(* The node budget is checked against the shared count plus the checking
   subtree's own unflushed batch. At 1 worker that is the exact count, so
   the cut overshoots only by the extensions of the step that crossed it;
   each further worker may hide one batch. *)
let test_node_budget_overshoot () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let budget = 5_000 in
  let expanded workers =
    let cfg =
      {
        (Search.Config.for_spec ~base:(small_config ~ops:8 ()) spec) with
        Search.Config.num_workers = workers;
        node_budget = budget;
        steal_depth_cutoff = 1;
      }
    in
    let stats = Search.Stats.create () in
    let _, exhausted = Search.Generator.search_time ~config:cfg ~stats ~spec () in
    Alcotest.(check bool) "cut by the budget" true exhausted;
    Search.Stats.expanded stats
  in
  let step = 200 in
  List.iter
    (fun workers ->
      let n = expanded workers in
      (* the exact 1-worker cut. A one-worker pool never takes a
         spawned subtree (no worker is ever hungry), so the kept
         children are searched inline in generation order; the
         engine that spawned them at depth 1 popped them LIFO and cut
         at 5122, and with spawning off (cutoff 0) that same engine
         cuts at 5135, the value pinned here. The cut lands in a
         block-level task before the kernel task (17 003 expansions
         on its own) has started, so it pins the block level's visit
         order, not the kernel level's. *)
      if workers = 1 then
        Alcotest.(check int) "1 worker: the exact cut" 5135 n;
      Alcotest.(check bool)
        (Printf.sprintf "%d worker(s): %d expanded past a budget of %d" workers n budget)
        true
        (n > budget && n <= budget + ((workers - 1) * Search.Tally.batch) + (workers * step)))
    [ 1; 2 ]

let test_search_discovers_fused_softmax () =
  (* softmax along the last dim: exp / rowsum / div — an exp-containing
     (LAX) program; one block per row chunk, no for-loop. *)
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 8; 16 |] in
  let e = prim bld (Op.Unary Op.Exp) [ x ] in
  let l = prim bld (Op.Sum { dim = 1; group = 16 }) [ e ] in
  let o = prim bld (Op.Binary Op.Div) [ e; l ] in
  let spec = Graph.Build.finish bld ~outputs:[ o ] in
  let base =
    {
      (small_config ~ops:3 ()) with
      Search.Config.grid_candidates = [ [| 4 |] ];
      forloop_candidates = [ [||] ];
    }
  in
  let cfg = Search.Config.for_spec ~base spec in
  Alcotest.(check bool) "exp in menu" true
    (List.mem (Op.Unary Op.Exp) cfg.Search.Config.block_op_menu);
  let o =
    Search.Generator.run ~config:cfg ~device:Gpusim.Device.a100 ~spec ()
  in
  match o.Search.Generator.best with
  | Some r ->
      Alcotest.(check int) "one kernel" 1
        r.Search.Generator.cost.Gpusim.Cost.num_kernels;
      Alcotest.(check string) "verified" "equivalent"
        (Verify.Random_test.to_string
           (Verify.Random_test.equivalent ~trials:3 ~spec
              r.Search.Generator.graph))
  | None -> Alcotest.fail "no fused softmax found"

let test_search_2d_grid () =
  (* a batched softmax over [4, 4, 8] with an explicit 2-d grid: the
     enumerator must handle multi-dimensional grids and omaps. *)
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 4; 4; 8 |] in
  let e = prim bld (Op.Unary Op.Exp) [ x ] in
  let l = prim bld (Op.Sum { dim = 2; group = 8 }) [ e ] in
  let o = prim bld (Op.Binary Op.Div) [ e; l ] in
  let spec = Graph.Build.finish bld ~outputs:[ o ] in
  let base =
    {
      (small_config ~ops:3 ()) with
      Search.Config.grid_candidates = [ [| 2; 2 |] ];
      forloop_candidates = [ [||] ];
    }
  in
  let cfg = Search.Config.for_spec ~base spec in
  let roots =
    Search.Block_enum.enumerate_roots cfg
      ~input_shapes:(Graph.input_shapes spec)
  in
  Alcotest.(check bool) "2-d roots exist" true (List.length roots > 0);
  let o =
    Search.Generator.run ~config:cfg ~device:Gpusim.Device.a100 ~spec ()
  in
  match o.Search.Generator.best with
  | Some r ->
      Alcotest.(check int) "fused under a 2-d grid" 1
        r.Search.Generator.cost.Gpusim.Cost.num_kernels;
      Alcotest.(check string) "verified" "equivalent"
        (Verify.Random_test.to_string
           (Verify.Random_test.equivalent ~trials:2 ~spec
              r.Search.Generator.graph))
  | None -> Alcotest.fail "no 2-d-grid kernel found"

let test_spec_always_candidate () =
  (* even with an empty search space the input program is returned *)
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg =
    {
      (small_config ~ops:1 ()) with
      Search.Config.grid_candidates = [];
      forloop_candidates = [];
      max_kernel_ops = 0;
    }
  in
  let o =
    Search.Generator.run ~config:cfg ~device:Gpusim.Device.a100 ~spec ()
  in
  match o.Search.Generator.best with
  | Some r ->
      Alcotest.(check bool) "returns the spec" true
        (Graph.equal r.Search.Generator.graph spec)
  | None -> Alcotest.fail "no result"

(* --- parallel candidate verification ------------------------------------- *)

let test_parallel_matches_sequential_winner () =
  (* The winner is the least passing candidate under (cost, hash,
     structure), whatever order the lanes emit in, so the 4-worker
     winner must equal the 1-worker one; and the candidate sets the two
     searches judged must coincide. *)
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg workers =
    {
      (Search.Config.for_spec ~base:(small_config ()) spec) with
      Search.Config.num_workers = workers;
    }
  in
  let go workers =
    Search.Generator.run ~config:(cfg workers) ~device:Gpusim.Device.a100
      ~spec ()
  in
  let seq = go 1 and par = go 4 in
  (match (seq.Search.Generator.best, par.Search.Generator.best) with
  | Some a, Some b ->
      Alcotest.(check bool) "same first winner" true
        (Graph.equal a.Search.Generator.graph b.Search.Generator.graph);
      Alcotest.(check (float 1e-9)) "same winner cost"
        a.Search.Generator.cost.Gpusim.Cost.total_us
        b.Search.Generator.cost.Gpusim.Cost.total_us
  | _ -> Alcotest.fail "both searches must find a winner");
  let hashes workers =
    List.sort compare
      (List.map Graph.hash (fst (generate ~workers (cfg workers) spec)))
  in
  Alcotest.(check (list int)) "same candidate hashes" (hashes 1) (hashes 4)

let test_deadline_during_parallel_verify () =
  (* A budget too small for the ops=8 space with 4 workers: wherever the
     deadline lands (between candidates or in a verification) the run
     must return best-so-far — the spec at worst — with the reason
     recorded, never crash or overshoot. *)
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg =
    {
      (Search.Config.for_spec ~base:(small_config ~ops:8 ()) spec) with
      Search.Config.num_workers = 4;
    }
  in
  let budget = Obs.Budget.create ~time_budget_s:0.15 () in
  let t0 = Unix.gettimeofday () in
  let o =
    Search.Generator.run ~config:cfg ~budget ~device:Gpusim.Device.a100 ~spec
      ()
  in
  Alcotest.(check bool) "stopped near the deadline" true
    (Unix.gettimeofday () -. t0 < 10.0);
  Alcotest.(check bool) "best-so-far returned" true
    (o.Search.Generator.best <> None);
  Alcotest.(check bool) "deadline recorded in degraded" true
    (List.mem "deadline" o.Search.Generator.degraded)

let test_expired_deadline_parallel_verify () =
  (* Deadline already in the past when the search starts: every task
     stops at its root before emitting anything, so the run hands back
     the spec immediately. *)
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg =
    {
      (Search.Config.for_spec ~base:(small_config ()) spec) with
      Search.Config.num_workers = 4;
    }
  in
  let budget = Obs.Budget.create ~time_budget_s:1e-6 () in
  Unix.sleepf 0.01;
  let o =
    Search.Generator.run ~config:cfg ~budget ~device:Gpusim.Device.a100 ~spec
      ()
  in
  (match o.Search.Generator.best with
  | Some r ->
      Alcotest.(check bool) "falls back to the spec" true
        (Graph.equal r.Search.Generator.graph spec)
  | None -> Alcotest.fail "best-so-far must never be empty");
  Alcotest.(check bool) "deadline recorded" true
    (List.mem "deadline" o.Search.Generator.degraded)

(* A search cancelled after [k] candidates still returns what it
   verified on the way: candidates are verified as they are emitted, so
   the cut keeps the incumbent instead of falling back to the spec.
   LoRA's 5-op search at one worker emits 258 candidates in generation
   order, and the first that verifies is the 96th; so a cut at 120 lands
   well after it and well before the end. The watcher runs on a domain
   of its own and stops polling once the search returns. *)
let test_cut_search_keeps_incumbent () =
  let k = 120 in
  let spec = lax_piece "LoRA" in
  let cfg =
    Search.Config.for_spec
      ~base:{ (small_config ~ops:5 ()) with Search.Config.time_budget_s = 0.0 }
      spec
  in
  let budget = Search.Budget.of_config cfg in
  let progress = Search.Progress.create () in
  let finished = Atomic.make false in
  let watcher =
    Domain.spawn (fun () ->
        while
          (not (Atomic.get finished))
          && (Search.Progress.view progress).Search.Progress.v_candidates < k
        do
          Unix.sleepf 1e-3
        done;
        Obs.Budget.cancel budget)
  in
  let o =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set finished true;
        Domain.join watcher)
      (fun () ->
        Search.Generator.run ~config:cfg ~budget ~progress
          ~device:Gpusim.Device.a100 ~spec ())
  in
  (match o.Search.Generator.best with
  | Some r ->
      Alcotest.(check bool) "the incumbent, not the spec" false
        (Graph.equal r.Search.Generator.graph spec);
      Alcotest.(check string) "the incumbent verifies"
        (Verify.Random_test.to_string Verify.Random_test.Equivalent)
        (Verify.Random_test.to_string
           (Verify.Random_test.equivalent ~trials:8 ~spec
              r.Search.Generator.graph))
  | None -> Alcotest.fail "best-so-far must never be empty");
  Alcotest.(check bool) "the cut is recorded in degraded" true
    (List.mem "cancelled" o.Search.Generator.degraded)

(* --- the solver memo dies with the search ---------------------------------- *)

(* Prune decisions are memoized per worker, in the search's own solver. A
   process that runs one search after another (a daemon handler, a bench
   loop) must not keep any of them: live words after a full major GC stay
   flat across sequential 1-worker searches. *)
let test_prune_memo_freed () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg =
    Search.Config.for_spec ~base:(small_config ~ops:3 ()) spec
  in
  let search () =
    ignore (Search.Generator.run ~config:cfg ~device:Gpusim.Device.a100 ~spec ())
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  search ();
  let before = live () in
  for _ = 1 to 10 do
    search ()
  done;
  let grown = live () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d over 10 searches" grown)
    true (grown < 4_000)

(* --- the extension memo is exact and dies with its search --------------- *)

(* div_matmul_spec with the division made a product: same inputs, other
   goal, so other prune verdicts. *)
let mul_matmul_spec ~b ~h ~d =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| b; h |] in
  let c = Graph.Build.input bld "C" [| b; 1 |] in
  let w = Graph.Build.input bld "W" [| h; d |] in
  let y = prim bld (Op.Binary Op.Mul) [ x; c ] in
  let z = prim bld Op.Matmul [ y; w ] in
  Graph.Build.finish bld ~outputs:[ z ]

(* A search's exact outcome: its funnel, every search.block.* and
   search.kernel.* histogram count and counter, and the digest of its
   candidates' sorted hashes. *)
type pins = {
  funnel : int list;
      (** expanded, shape, memory, pruned, canonical, candidates,
          duplicates *)
  totals : (string * int) list;
  digest : string;
}

(* Grid {2}, for-loops {2} and {4}, at most 3 block ops. *)
let two_loop_config ~workers spec =
  Search.Config.for_spec
    ~base:
      {
        (small_config ~ops:3 ()) with
        Search.Config.forloop_candidates = [ [| 2 |]; [| 4 |] ];
        num_workers = workers;
        time_budget_s = 0.0;
      }
    spec

let search_pins ~workers spec =
  let cfg = two_loop_config ~workers spec in
  let solver = Smtlite.Solver.create ~target:(Abstract.output_exprs spec) in
  let stats = Search.Stats.create () in
  let cands, exhausted, crashes =
    Search.Generator.generate cfg ~spec ~solver ~stats
      ~limits:(Gpusim.Device.limits Gpusim.Device.a100)
      ~budget:(Search.Budget.of_config cfg) ()
  in
  Alcotest.(check bool) "ran to completion" false (exhausted || crashes > 0);
  let s = Search.Stats.snapshot stats in
  let m = Obs.Metrics.snapshot (Search.Stats.registry stats) in
  let level name =
    List.exists
      (fun p ->
        String.length name > String.length p
        && String.sub name 0 (String.length p) = p)
      [ "search.block."; "search.kernel." ]
  in
  {
    funnel =
      Search.Stats.
        [
          s.expanded;
          s.shape_rejected;
          s.memory_rejected;
          s.pruned_abstract;
          s.canonical_rejected;
          s.candidates;
          s.duplicates;
        ];
    totals =
      List.sort compare
        (List.filter
           (fun (name, _) -> level name)
           (List.map
              (fun (name, (h : Obs.Metrics.hist_snapshot)) ->
                (name, h.Obs.Metrics.count))
              m.Obs.Metrics.hists
           @ m.Obs.Metrics.counters));
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat ","
              (List.map string_of_int
                 (List.sort compare
                    (List.map (fun (_, g) -> Graph.hash g) cands)))));
  }

(* The funnel's duplicates are the enumerators' duplicate rejects and
   nothing else: the two levels' [reject_depth.duplicate] histograms. *)
let check_pins name want got =
  Alcotest.(check (list int)) (name ^ "funnel") want.funnel got.funnel;
  Alcotest.(check int)
    (name ^ "duplicates are the levels' duplicate rejects")
    (List.nth got.funnel 6)
    (List.assoc "search.kernel.reject_depth.duplicate" got.totals
    + List.assoc "search.block.reject_depth.duplicate" got.totals);
  Alcotest.(check (list (pair string int)))
    (name ^ "level totals") want.totals got.totals;
  Alcotest.(check string) (name ^ "candidate digest") want.digest got.digest

(* Recorded from the enumerator that made, normalized and prune-checked
   every extension at its birth prefix, before values were interned. The
   goal (a matmul of a quotient or a product) holds no exp/sqrt/silu
   atom, so the goal-distance cut only stops the kept leaves that are
   not the output: it added the two [reject.unreachable] counters and
   moved nothing else. *)
let div_two_loops =
  {
    funnel = [ 673_023; 234_467; 0; 148_019; 219_424; 167; 9108 ];
    totals =
      [
        ("search.block.expand_depth", 656_020);
        ("search.block.reject.dangling", 24_332);
        ("search.block.reject.phase", 27_185);
        ("search.block.reject.unreachable", 584);
        ("search.block.reject_depth.canonical", 209_676);
        ("search.block.reject_depth.duplicate", 8958);
        ("search.block.reject_depth.memory", 0);
        ("search.block.reject_depth.pruned", 144_781);
        ("search.block.reject_depth.shape", 230_846);
        ("search.kernel.expand_depth", 17_003);
        ("search.kernel.reject.unreachable", 53);
        ("search.kernel.reject_depth.canonical", 9748);
        ("search.kernel.reject_depth.duplicate", 150);
        ("search.kernel.reject_depth.pruned", 3238);
        ("search.kernel.reject_depth.shape", 3621);
      ];
    digest = "fceffaac5081730887273ca571e4280a";
  }

let mul_two_loops =
  {
    funnel = [ 628_715; 242_930; 0; 115_488; 177_102; 219; 13_295 ];
    totals =
      [
        ("search.block.expand_depth", 610_186);
        ("search.block.reject.dangling", 42_742);
        ("search.block.reject.phase", 23_013);
        ("search.block.reject.unreachable", 749);
        ("search.block.reject_depth.canonical", 168_932);
        ("search.block.reject_depth.duplicate", 13_046);
        ("search.block.reject_depth.memory", 0);
        ("search.block.reject_depth.pruned", 111_689);
        ("search.block.reject_depth.shape", 237_064);
        ("search.kernel.expand_depth", 18_529);
        ("search.kernel.reject.unreachable", 127);
        ("search.kernel.reject_depth.canonical", 8170);
        ("search.kernel.reject_depth.duplicate", 249);
        ("search.kernel.reject_depth.pruned", 3799);
        ("search.kernel.reject_depth.shape", 5866);
      ];
    digest = "c231f46295774e13226c3525122b6f25";
  }

(* Root classes of both for-loops share values (an input tile the loop
   does not split, and everything made from it) but not the cells that
   read the loop: an accumulator sums over 2 iterations in one and 4 in
   the other. The memo keeps every count and candidate. *)
let test_memo_two_forloops () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let loops =
    List.sort_uniq compare
      (List.map
         (fun (c : Search.Block_enum.root_class) ->
           c.Search.Block_enum.rep.Search.Block_enum.forloop)
         (Search.Block_enum.enumerate_roots (two_loop_config ~workers:1 spec)
            ~input_shapes:(Graph.input_shapes spec)))
  in
  Alcotest.(check (list (array int)))
    "root classes span both for-loops" [ [| 2 |]; [| 4 |] ] loops;
  List.iter
    (fun workers ->
      check_pins
        (Printf.sprintf "%d worker(s): " workers)
        div_two_loops (search_pins ~workers spec))
    [ 1; 2 ]

(* Value tables, memo cells and prune verdicts belong to one search: two
   specs over the same inputs, searched back to back in one process,
   each keep the pins it has alone, although their values coincide and
   their goals (so their verdicts) differ. *)
let test_memo_back_to_back () =
  let div = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let mul = mul_matmul_spec ~b:4 ~h:8 ~d:16 in
  check_pins "mul first: " mul_two_loops (search_pins ~workers:2 mul);
  check_pins "div after mul: " div_two_loops (search_pins ~workers:2 div);
  check_pins "mul after div: " mul_two_loops (search_pins ~workers:2 mul)

(* --- goal masks ---------------------------------------------------------- *)

(* div_matmul_spec with the quotient an output too: two goals, so masks
   with either bit. *)
let div_matmul_two_outputs ~b ~h ~d =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| b; h |] in
  let c = Graph.Build.input bld "C" [| b; 1 |] in
  let w = Graph.Build.input bld "W" [| h; d |] in
  let y = prim bld (Op.Binary Op.Div) [ x; c ] in
  let z = prim bld Op.Matmul [ y; w ] in
  Graph.Build.finish bld ~outputs:[ y; z ]

(* Every value a kernel search and every block root class intern carries
   the mask an [Nf.equal] scan of the spec outputs gives. *)
let test_goal_masks () =
  let spec = div_matmul_two_outputs ~b:4 ~h:8 ~d:16 in
  let cfg =
    Search.Config.for_spec
      ~base:{ (small_config ~ops:3 ()) with Search.Config.time_budget_s = 0.0 }
      spec
  in
  let goals = Search.Prefix.spec_goals spec in
  let stats = Search.Stats.create () in
  let front =
    Smtlite.Solver.front
      (Smtlite.Solver.create ~target:(Abstract.output_exprs spec))
      0
  in
  let limits = Gpusim.Device.limits Gpusim.Device.a100 in
  let budget = Search.Budget.of_config cfg in
  let emitted = ref 0 in
  let emit _ = incr emitted in
  let kvalues = Search.Prefix.values goals in
  let kmemo =
    Search.Prefix.memo kvalues (Search.Kernel_enum.tally cfg stats) front
  in
  Search.Kernel_enum.search cfg ~spec ~memo:(fun () -> kmemo) ~limits ~budget
    ~emit ();
  let bvalues = Search.Prefix.values goals in
  let bmemo =
    Search.Prefix.memo bvalues (Search.Block_enum.tally cfg stats) front
  in
  let blocks =
    Search.Block_enum.prepare cfg ~spec ~limits ~values:bvalues
      ~memo:(fun () -> bmemo) ~budget
  in
  List.iter
    (fun cls -> Search.Block_enum.search_root blocks ~emit cls)
    (Search.Block_enum.enumerate_roots cfg
       ~input_shapes:(Graph.input_shapes spec));
  let check_level name vs =
    let scanned (v : _ Search.Prefix.value) =
      List.fold_left
        (fun (m, j) o ->
          ((if Absexpr.Nf.equal v.Search.Prefix.nf o then m lor (1 lsl j)
            else m),
           j + 1))
        (0, 0) goals
      |> fst
    in
    let wrong =
      List.filter (fun v -> v.Search.Prefix.goals <> scanned v) vs
    in
    Alcotest.(check int) (name ^ ": masks equal the scan") 0
      (List.length wrong);
    List.iter
      (fun bit ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: some value matches output %d" name bit)
          true
          (List.exists
             (fun v -> v.Search.Prefix.goals land (1 lsl bit) <> 0)
             vs))
      [ 0; 1 ]
  in
  check_level "kernel" (Search.Prefix.interned kvalues);
  check_level "block" (Search.Prefix.interned bvalues);
  Alcotest.(check bool) "the searches completed candidates" true
    (!emitted > 0)

(* A mask is one bit per output of a non-negative int: 62 outputs fit,
   the 63rd raises instead of wrapping into the sign bit. *)
let test_goal_mask_width () =
  let nf = Absexpr.Nf.nf_var "X" in
  ignore (Search.Prefix.values (List.init 62 (fun _ -> nf)));
  Alcotest.check_raises "63 outputs"
    (Invalid_argument "Prefix.values: 63 outputs exceed 62") (fun () ->
      ignore (Search.Prefix.values (List.init 63 (fun _ -> nf))))

(* --- packed ranks -------------------------------------------------------- *)

(* Every input list of arity 1 and 2 the packing holds, and every
   operator either level makes: the menu's prims with a [Sum] along each
   dim of a few sizes, and at the block level plain and concatenating
   accumulators over one- and two-dim for-loops. *)
let rank_lists () =
  let w = Search.Prefix.rank_limit in
  List.init w (fun a -> [ a ])
  @ List.concat (List.init w (fun a -> List.init w (fun b -> [ a; b ])))

let rank_prims =
  [
    Op.Matmul;
    Op.Binary Op.Add;
    Op.Binary Op.Mul;
    Op.Binary Op.Div;
    Op.Unary Op.Exp;
    Op.Unary Op.Sqr;
    Op.Unary Op.Sqrt;
    Op.Unary Op.Silu;
  ]
  @ List.concat_map
      (fun dim -> List.map (fun group -> Op.Sum { dim; group }) [ 2; 4; 16 ])
      [ 0; 1; 2; 3 ]

let rank_accums =
  let open Dmap in
  List.map
    (fun fmap -> Graph.B_accum { fmap })
    [
      [| Replica |];
      [| Dim 0 |];
      [| Dim 1 |];
      [| Replica; Replica |];
      [| Dim 0; Replica |];
      [| Replica; Dim 1 |];
    ]

(* Sorted by [Canon.compare_rank], every adjacent pair must compare the
   same way packed: strictly below where Canon says below, equal where
   it says equal. The packed compare is a total preorder, so agreement
   on adjacent pairs of the sorted list is agreement in sign on every
   pair, checked without the quadratic loop. *)
let check_rank_order name ranks =
  let sorted =
    List.stable_sort (fun (_, _, a) (_, _, b) -> Canon.compare_rank a b) ranks
  in
  let rec walk n = function
    | (r, op, a) :: ((r', op', b) :: _ as rest) ->
        let want = compare (Canon.compare_rank a b) 0 in
        let got = compare (Search.Prefix.compare_rank r op r' op') 0 in
        if want <> got then
          Alcotest.failf "%s: pair %d: Canon says %d, packed says %d" name n
            want got;
        walk (n + 1) rest
    | _ -> n
  in
  let pairs = walk 0 sorted in
  Alcotest.(check int) (name ^ ": every adjacent pair") (List.length ranks - 1)
    pairs

let test_packed_rank_order () =
  let lists = rank_lists () in
  let tref i = { Graph.node = i; port = 0 } in
  let ranked mk ops =
    List.concat_map
      (fun ins ->
        let r = Search.Prefix.pack_rank ins in
        List.map (fun op -> (r, op, mk ins op)) ops)
      lists
  in
  check_rank_order "kernel"
    (ranked
       (fun ins op -> Canon.R_kernel (List.map tref ins, op))
       (List.map (fun p -> Graph.K_prim p) rank_prims));
  check_rank_order "block"
    (ranked
       (fun ins op -> Canon.R_block (ins, op))
       (List.map (fun p -> Graph.B_prim p) rank_prims @ rank_accums))

(* An index past the field would carry into the next one ([[a; 63]]
   would pack as [[a + 1]]); the packing refuses it instead. *)
let test_packed_rank_width () =
  let w = Search.Prefix.rank_limit in
  Alcotest.(check bool)
    "the widest lists still pack in order" true
    (Search.Prefix.pack_rank [ w - 1 ] < Search.Prefix.pack_rank [ w - 1; 0 ]);
  List.iter
    (fun ins ->
      Alcotest.check_raises
        (Printf.sprintf "[%s] raises"
           (String.concat "; " (List.map string_of_int ins)))
        (Invalid_argument "Prefix.pack_rank")
        (fun () -> ignore (Search.Prefix.pack_rank ins)))
    [ [ w ]; [ 0; w ]; [ 3; w + 1 ]; [ -1 ]; []; [ 0; 1; 2 ] ]

(* --- lanes --------------------------------------------------------------- *)

(* Domain ids are handed out in spawn order, so the id of a probe domain
   spawned after some work, less the one before it, counts the domains
   the work started (plus the probe). *)
let probe_domain () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

let test_lanes_one () =
  let caller = (Domain.self () :> int) in
  let before = probe_domain () in
  let ran = ref [] in
  let lanes = Search.Generator.Lanes.create 1 in
  let escaped =
    Search.Generator.Lanes.run lanes (fun i ->
        (* past the threshold, a lone lane still starts nothing *)
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < 2.0 *. Search.Generator.helper_after_s do
          Search.Generator.Lanes.poll lanes
        done;
        ran := (i, (Domain.self () :> int)) :: !ran)
  in
  let after = probe_domain () in
  Alcotest.(check int) "nothing escaped" 0 (List.length escaped);
  Alcotest.(check (list (pair int int)))
    "lane 0 on the caller" [ (0, caller) ] !ran;
  Alcotest.(check int) "no helper started" 0
    (Search.Generator.Lanes.started lanes);
  Alcotest.(check int) "no domain spawned" 1 (after - before)

(* Lane 0 polls until its helper has started, then dies; lane 1 still
   runs its work to the end, and the one exception comes back after the
   join. *)
let test_lanes_lane0_raises () =
  let started = Atomic.make false and finished = Atomic.make false in
  let lanes = Search.Generator.Lanes.create 2 in
  let escaped =
    Search.Generator.Lanes.run lanes (fun i ->
        if i = 0 then begin
          while not (Atomic.get started) do
            Search.Generator.Lanes.poll lanes;
            Domain.cpu_relax ()
          done;
          failwith "lane 0 died"
        end
        else begin
          Atomic.set started true;
          Unix.sleepf 0.05;
          Atomic.set finished true
        end)
  in
  Alcotest.(check bool) "lane 1 finished" true (Atomic.get finished);
  Alcotest.(check int) "one helper started" 1
    (Search.Generator.Lanes.started lanes);
  match escaped with
  | [ Failure msg ] -> Alcotest.(check string) "reported once" "lane 0 died" msg
  | l -> Alcotest.failf "want one escaped exception, got %d" (List.length l)

(* A poll before the threshold starts nothing; the first one past it
   starts all n - 1 helpers at once, and [run] returns only after every
   lane has finished. *)
let test_lanes_on_demand () =
  let lanes = Search.Generator.Lanes.create 3 in
  let finished = Atomic.make 0 in
  let early = ref (-1) in
  let escaped =
    Search.Generator.Lanes.run lanes (fun i ->
        if i = 0 then begin
          Search.Generator.Lanes.poll lanes;
          early := Search.Generator.Lanes.started lanes;
          let t0 = Unix.gettimeofday () in
          while Search.Generator.Lanes.started lanes = 0
                && Unix.gettimeofday () -. t0 < 5.0
          do
            Search.Generator.Lanes.poll lanes
          done
        end
        else Unix.sleepf 0.02;
        Atomic.incr finished)
  in
  Alcotest.(check int) "nothing escaped" 0 (List.length escaped);
  Alcotest.(check int) "a poll at once starts nothing" 0 !early;
  Alcotest.(check int) "n - 1 helpers started" 2
    (Search.Generator.Lanes.started lanes);
  Alcotest.(check int) "every lane finished before run returned" 3
    (Atomic.get finished)

(* The pool takes a continuation only while some worker is hungry: a
   lone worker is busy running the item that offers one, so it never
   spawns; with a second worker idle, an offer is taken once that worker
   has come up empty, and the taken item runs. *)
let test_pool_spawns_for_hungry () =
  let module P = Search.Deque.Pool in
  let one = P.create ~registry:(Obs.Metrics.create ()) ~workers:1 () in
  let took = ref None in
  P.seed one (fun () -> took := Some (P.spawn one (fun () -> ())));
  P.run_worker one ~id:0 ~stop:(fun () -> false) ~run:(fun f -> f ());
  Alcotest.(check (option bool)) "1 worker: the offer is refused" (Some false)
    !took;
  Alcotest.(check int) "1 worker: nothing spawned" 0 (P.spawned one);
  let two = P.create ~registry:(Obs.Metrics.create ()) ~workers:2 () in
  let ran = Atomic.make false in
  P.seed two (fun () ->
      let t0 = Unix.gettimeofday () in
      while
        (not (P.spawn two (fun () -> Atomic.set ran true)))
        && Unix.gettimeofday () -. t0 < 5.0
      do
        Domain.cpu_relax ()
      done);
  let other =
    Domain.spawn (fun () ->
        P.run_worker two ~id:1 ~stop:(fun () -> false) ~run:(fun f -> f ()))
  in
  P.run_worker two ~id:0 ~stop:(fun () -> false) ~run:(fun f -> f ());
  Domain.join other;
  Alcotest.(check int) "2 workers: one offer taken" 1 (P.spawned two);
  Alcotest.(check bool) "the taken item ran" true (Atomic.get ran)

(* A worker with nothing to take while an item runs parks; a spawn
   wakes it and it runs the spawned item, and it parks again until the
   pool drains, which wakes it to leave. Both workers run on domains of
   their own, and the waits spin on the pool's own counts, so a lost
   wake-up fails the test after the guard's timeout instead of hanging
   it. *)
let test_pool_park_wakes () =
  let module P = Search.Deque.Pool in
  let pool = P.create ~registry:(Obs.Metrics.create ()) ~workers:2 () in
  let within cond =
    let t0 = Unix.gettimeofday () in
    while (not (cond ())) && Unix.gettimeofday () -. t0 < 10.0 do
      Domain.cpu_relax ()
    done;
    cond ()
  in
  let host = Atomic.make (-1) and ran_on = Atomic.make (-1) in
  let took = Atomic.make false and parked_again = Atomic.make false in
  P.seed pool (fun () ->
      (* either worker may take the seeded item; the other parks *)
      Atomic.set host (Option.get (P.self pool));
      if within (fun () -> P.parked pool = 1) then begin
        Atomic.set took
          (P.spawn pool (fun () ->
               Atomic.set ran_on (Option.value ~default:(-1) (P.self pool))));
        if within (fun () -> Atomic.get ran_on >= 0) then
          Atomic.set parked_again (within (fun () -> P.parked pool = 1))
      end);
  let left = Array.init 2 (fun _ -> Atomic.make false) in
  let workers =
    List.init 2 (fun id ->
        Domain.spawn (fun () ->
            P.run_worker pool ~id ~stop:(fun () -> false) ~run:(fun f -> f ());
            Atomic.set left.(id) true))
  in
  if not (within (fun () -> Array.for_all Atomic.get left)) then
    Alcotest.fail "a parked worker was never woken";
  List.iter Domain.join workers;
  Alcotest.(check bool) "the offer is taken" true (Atomic.get took);
  Alcotest.(check int) "spawn woke the parked worker, which ran the item"
    (1 - Atomic.get host) (Atomic.get ran_on);
  Alcotest.(check bool) "parked again before the drain" true
    (Atomic.get parked_again);
  Alcotest.(check int) "nobody parked after the drain" 0 (P.parked pool)

(* Pools share one domain-local key: after 100 000 pools, a fresh
   domain's first [self] still allocates next to nothing (with a key per
   pool it would grow that domain's DLS array to the newest key's index,
   some 200 000 words). A worker run nested in another pool's item
   leaves the domain the outer pool's worker when it returns. *)
let test_pool_keys_once () =
  let module P = Search.Deque.Pool in
  let registry = Obs.Metrics.create () in
  for _ = 1 to 100_000 do
    ignore (P.create ~registry ~workers:1 ())
  done;
  let pool = P.create ~registry ~workers:1 () in
  let words =
    Domain.join
      (Domain.spawn (fun () ->
           let w0 = (Gc.quick_stat ()).Gc.major_words in
           ignore (P.self pool);
           (Gc.quick_stat ()).Gc.major_words -. w0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "a fresh domain's first self: %.0f major words" words)
    true (words < 10_000.0);
  let outer = P.create ~registry ~workers:1 () in
  let inner = P.create ~registry ~workers:1 () in
  let seen = ref [] in
  P.seed outer (fun () ->
      P.seed inner (fun () -> seen := ("inner", P.self inner) :: !seen);
      P.run_worker inner ~id:0 ~stop:(fun () -> false) ~run:(fun f -> f ());
      seen := ("outer after inner", P.self outer) :: !seen);
  P.run_worker outer ~id:0 ~stop:(fun () -> false) ~run:(fun f -> f ());
  Alcotest.(check (list (pair string (option int))))
    "each run sees its own worker id"
    [ ("inner", Some 0); ("outer after inner", Some 0) ]
    (List.rev !seen);
  Alcotest.(check (option int)) "no worker after the run" None (P.self outer)

let lanes_started stats =
  List.assoc "search.lanes.started"
    (Obs.Metrics.snapshot (Search.Stats.registry stats)).Obs.Metrics.counters

(* The reduced nTrans piece on the search_fig7 menu is one task of 27
   tries, done in well under [helper_after_s]: a 2-worker search of it
   starts no domain. *)
let test_two_worker_search_no_domain () =
  let spec = lax_piece "nTrans" in
  let cfg =
    Search.Config.for_spec
      ~base:
        {
          (small_config ~ops:3 ()) with
          Search.Config.num_workers = 2;
          time_budget_s = 0.0;
        }
      spec
  in
  let stats = Search.Stats.create () in
  let before = probe_domain () in
  let _, exhausted, crashes =
    Search.Generator.generate cfg ~spec
      ~solver:(Smtlite.Solver.create ~target:(Abstract.output_exprs spec))
      ~stats
      ~limits:(Gpusim.Device.limits Gpusim.Device.a100)
      ~budget:(Search.Budget.of_config cfg) ()
  in
  let after = probe_domain () in
  Alcotest.(check bool) "ran to completion" false (exhausted || crashes > 0);
  Alcotest.(check int) "27 tries" 27 (Search.Stats.expanded stats);
  Alcotest.(check int) "no domain started" 0 (after - before - 1);
  Alcotest.(check int) "none counted" 0 (lanes_started stats)

(* The reduced LoRA piece searches for ~0.1 s on the search_fig7 menu,
   far past the threshold: lane 0 starts its n - 1 helpers once, and
   when [generate] returns the pool is drained and nobody is parked. *)
let test_long_search_starts_helpers () =
  let spec = lax_piece "LoRA" in
  let workers = 3 in
  let cfg =
    Search.Config.for_spec
      ~base:
        {
          (small_config ~ops:3 ()) with
          Search.Config.num_workers = workers;
          time_budget_s = 0.0;
        }
      spec
  in
  let stats = Search.Stats.create () in
  let pool = ref None in
  let before = probe_domain () in
  let _, exhausted, crashes =
    Search.Generator.generate cfg ~spec
      ~solver:(Smtlite.Solver.create ~target:(Abstract.output_exprs spec))
      ~stats
      ~limits:(Gpusim.Device.limits Gpusim.Device.a100)
      ~budget:(Search.Budget.of_config cfg)
      ~on_pool:(fun p -> pool := Some p)
      ()
  in
  let after = probe_domain () in
  let pool = Option.get !pool in
  Alcotest.(check bool) "ran to completion" false (exhausted || crashes > 0);
  Alcotest.(check int) "n - 1 helpers counted" (workers - 1) (lanes_started stats);
  Alcotest.(check int) "n - 1 domains started" (workers - 1) (after - before - 1);
  Alcotest.(check int) "the pool drained" 0 (Search.Deque.Pool.pending pool);
  Alcotest.(check int) "no worker left parked" 0 (Search.Deque.Pool.parked pool)

(* --- goal distance -------------------------------------------------------- *)

module Nf = Absexpr.Nf
module E = Absexpr.Expr

(* The soundness lemma's table: how many atoms one application of each
   operator may create. *)
let test_atoms_made () =
  List.iter
    (fun (p, n) ->
      Alcotest.(check int) (Op.name p) n (Search.Prefix.atoms_made p))
    [
      (Op.Unary Op.Exp, 1);
      (Op.Unary Op.Sqrt, 1);
      (Op.Unary Op.Silu, 1);
      (Op.Unary Op.Relu, 2);
      (Op.Unary Op.Sqr, 0);
      (Op.Matmul, 0);
      (Op.Binary Op.Add, 0);
      (Op.Binary Op.Mul, 0);
      (Op.Binary Op.Div, 0);
      (Op.Binary Op.Sub, 0);
      (Op.Sum { dim = 0; group = 4 }, 0);
      (Op.Repeat { dim = 0; times = 2 }, 0);
      (Op.Reshape [| 16 |], 0);
      (Op.Transpose, 0);
      (Op.Concat_matmul, 0);
    ]

let atom_expr_gen =
  let open QCheck2.Gen in
  sized_size (int_range 1 12) @@ fix (fun self n ->
      if n <= 1 then map E.var (oneofl [ "x"; "y"; "z" ])
      else
        frequency
          [
            (2, map E.var (oneofl [ "x"; "y"; "z" ]));
            (3, map2 E.add (self (n / 2)) (self (n / 2)));
            (3, map2 E.mul (self (n / 2)) (self (n / 2)));
            (2, map2 E.div (self (n / 2)) (self (n / 2)));
            (1, map E.exp (self (n - 1)));
            (1, map E.sqrt (self (n - 1)));
            (1, map E.silu (self (n - 1)));
            (2, map2 (fun i e -> E.sum (i + 1) e) (int_range 1 4) (self (n - 1)));
          ])

(* Every prim of Abstract.prim_nf, on [4; 4] operands. *)
let lemma_prims =
  [
    Op.Matmul;
    Op.Binary Op.Add;
    Op.Binary Op.Mul;
    Op.Binary Op.Div;
    Op.Binary Op.Sub;
    Op.Unary Op.Exp;
    Op.Unary Op.Sqr;
    Op.Unary Op.Sqrt;
    Op.Unary Op.Silu;
    Op.Unary Op.Relu;
    Op.Sum { dim = 1; group = 4 };
    Op.Repeat { dim = 0; times = 2 };
    Op.Reshape [| 16 |];
    Op.Transpose;
    Op.Concat_matmul;
  ]

(* (a) The atom lemma: applied to normalized inputs, a prim creates at
   most [atoms_made] exp/sqrt/silu atoms that occur in no input, and
   removes none. *)
let prop_atom_lemma =
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"prims create at most atoms_made atoms"
       QCheck2.Gen.(
         pair (oneofl lemma_prims) (list_size (return 4) atom_expr_gen))
       (fun (p, es) ->
         let ins = List.map Nf.of_expr (List.filteri (fun i _ -> i < Op.arity p) es) in
         let out =
           Abstract.prim_nf p
             ~in_shapes:(List.map (fun _ -> [| 4; 4 |]) ins)
             ins
         in
         let had = List.concat_map Search.Prefix.atoms ins in
         let has = Search.Prefix.atoms out in
         let mem a l = List.exists (Nf.equal a) l in
         List.for_all (fun a -> mem a has) had
         && List.length (List.filter (fun a -> not (mem a had)) has)
            <= Search.Prefix.atoms_made p))

(* Softmax along the last dim: exp / rowsum / div. *)
let softmax_spec () =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 8; 16 |] in
  let e = prim bld (Op.Unary Op.Exp) [ x ] in
  let l = prim bld (Op.Sum { dim = 1; group = 16 }) [ e ] in
  let o = prim bld (Op.Binary Op.Div) [ e; l ] in
  Graph.Build.finish bld ~outputs:[ o ]

(* sqrt(exp X): each atom's bare form is a needed form (the output, and
   the sqrt's argument), so the goal is exactly two operators away. *)
let sqrt_exp_spec () =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 8; 16 |] in
  let e = prim bld (Op.Unary Op.Exp) [ x ] in
  let r = prim bld (Op.Unary Op.Sqrt) [ e ] in
  Graph.Build.finish bld ~outputs:[ r ]

let distance_specs () =
  [
    ("softmax", softmax_spec ());
    ("sqrt-exp", sqrt_exp_spec ());
    ("gatedmlp", lax_piece "GatedMLP");
    ("rmsnorm", lax_piece "RMSNorm");
  ]

(* At most 4 kernel and 3 block operators, grid {2}, for-loops none
   and {2}. *)
let distance_config ?(pruning = true) spec =
  Search.Config.for_spec
    ~base:
      {
        (small_config ~ops:3 ~pruning ()) with
        Search.Config.max_kernel_ops = 4;
        forloop_candidates = [ [||]; [| 2 |] ];
        time_budget_s = 0.0;
      }
    spec

let unreachable stats =
  let counters =
    (Obs.Metrics.snapshot (Search.Stats.registry stats)).Obs.Metrics.counters
  in
  List.assoc "search.kernel.reject.unreachable" counters
  + List.assoc "search.block.reject.unreachable" counters

(* The normal forms of a candidate's entries in the order its level
   made them — the inputs, then one per operator — and that level's
   operator budget. *)
let replay cfg (g : Graph.kernel_graph) =
  let kexprs = Abstract.kernel_exprs g in
  let nodes = Array.to_list (Array.mapi (fun i n -> (i, n)) g.Graph.knodes) in
  let inputs =
    List.filter_map
      (fun (i, (n : Graph.kernel_node)) ->
        match n.Graph.kop with
        | Graph.K_input _ -> Some kexprs.(i).(0)
        | _ -> None)
      nodes
  in
  match
    List.find_map
      (fun (i, (n : Graph.kernel_node)) ->
        match n.Graph.kop with
        | Graph.K_graphdef bg -> Some (i, n, bg)
        | _ -> None)
      nodes
  with
  | Some (_, n, bg) ->
      let shapes = Infer.kernel_shapes g in
      let ins = n.Graph.kins in
      let bexprs =
        Abstract.block_exprs bg
          ~kernel_input_exprs:
            (List.map
               (fun (r : Graph.tensor_ref) -> kexprs.(r.node).(r.port))
               ins)
          ~kernel_input_shapes:
            (List.map
               (fun (r : Graph.tensor_ref) -> shapes.(r.node).(r.port))
               ins)
      in
      let made =
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i (b : Graph.block_node) ->
                  match b.Graph.bop with
                  | Graph.B_initer _ | Graph.B_outsaver _ -> None
                  | _ -> Some bexprs.(i))
                bg.Graph.bnodes))
      in
      (inputs, made, cfg.Search.Config.max_block_ops)
  | None ->
      ( inputs,
        List.filter_map
          (fun (i, (n : Graph.kernel_node)) ->
            match n.Graph.kop with
            | Graph.K_prim _ -> Some kexprs.(i).(0)
            | _ -> None)
          nodes,
        cfg.Search.Config.max_kernel_ops )

(* (b) Consistency: along every candidate's construction, prefix by
   prefix, [ops + distance] never decreases and never exceeds the
   level's operator budget, and the complete graph is at distance 0. *)
let check_consistent name cfg spec cands =
  let values = Search.Prefix.values (Search.Prefix.spec_goals spec) in
  List.iter
    (fun g ->
      let inputs, made, max_ops = replay cfg g in
      let nfs = List.map Nf.of_expr (inputs @ made) in
      let n_in = List.length inputs in
      let f k =
        k + Search.Prefix.distance values (List.filteri (fun i _ -> i < n_in + k) nfs)
      in
      let fs = List.init (List.length made + 1) f in
      List.iteri
        (fun k v ->
          if v > max_ops then
            Alcotest.failf "%s: prefix of %d ops at ops + distance %d > %d" name k v
              max_ops;
          if k > 0 && v < List.nth fs (k - 1) then
            Alcotest.failf "%s: ops + distance fell from %d to %d at %d ops" name
              (List.nth fs (k - 1)) v k)
        fs;
      Alcotest.(check int) (name ^ ": complete at distance 0") 0
        (Search.Prefix.distance values nfs))
    cands

let test_distance_consistent () =
  List.iter
    (fun (name, spec) ->
      let cfg = distance_config spec in
      let cands, _ = generate cfg spec in
      check_consistent name cfg spec cands)
    (distance_specs ()
    @ [ ("div-matmul", div_matmul_spec ~b:4 ~h:8 ~d:16) ])

(* The case-study menus of bench casestudy: grid {8}, for-loop {4}, at
   most 8 block ops; 4 and 20 candidates. *)
let test_distance_consistent_case_studies () =
  List.iter
    (fun (name, spec, n) ->
      let cfg =
        Search.Config.for_spec
          ~base:
            {
              Search.Config.default with
              Search.Config.grid_candidates = [ [| 8 |] ];
              forloop_candidates = [ [| 4 |] ];
              max_block_ops = 8;
              time_budget_s = 0.0;
            }
          spec
      in
      let cands, stats = generate ~workers:2 cfg spec in
      Alcotest.(check int) (name ^ ": candidates") n (List.length cands);
      Alcotest.(check bool) (name ^ ": the cut fired") true (unreachable stats > 0);
      check_consistent name cfg spec cands)
    [
      ("rmsnorm", Baselines.Templates.rmsnorm_matmul_spec ~b:4 ~h:64 ~d:256, 4);
      ("gatedmlp", Baselines.Templates.gated_mlp_spec ~b:4 ~h:64 ~f:256, 20);
    ]

let digest cands =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map string_of_int (List.sort compare (List.map Graph.hash cands)))))

(* (c) Exactness: abstract pruning (and with it the goal-distance cut)
   on keeps exactly the candidates of a search with it off whose every
   made tensor is a subexpression of the goal (paper Theorem 1): the
   cut loses none of them. *)
let test_distance_exact () =
  List.iter
    (fun (name, spec) ->
      let cfg = distance_config spec in
      let on, stats = generate ~workers:2 cfg spec in
      let off, _ = generate ~workers:2 (distance_config ~pruning:false spec) spec in
      let goal = Nf.goal (Search.Prefix.spec_goals spec) in
      let kept =
        List.filter
          (fun g ->
            let _, made, _ = replay cfg g in
            List.for_all (fun e -> Nf.decide goal (Nf.of_expr e)) made)
          off
      in
      Alcotest.(check int) (name ^ ": candidates") (List.length kept)
        (List.length on);
      Alcotest.(check string) (name ^ ": candidate digest") (digest kept)
        (digest on);
      if name <> "rmsnorm" then
        Alcotest.(check bool) (name ^ ": candidates found") true (on <> []);
      (* sqrt(exp X) is reached by its only two subexpressions, so there
         the cut finds nothing to stop *)
      if name <> "sqrt-exp" then
        Alcotest.(check bool) (name ^ ": the cut fired") true
          (unreachable stats > 0))
    (distance_specs ())

(* (d) A Relu menu: relu is silu (silu x), two atoms from one operator,
   so the search takes no cut and finds the one-operator graph that an
   atom-per-operator count would have ruled out at the root. *)
let test_distance_relu_menu () =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 8; 16 |] in
  let r = prim bld (Op.Unary Op.Relu) [ x ] in
  let spec = Graph.Build.finish bld ~outputs:[ r ] in
  let menu = [ Op.Unary Op.Relu ] in
  let cfg =
    {
      (small_config ~ops:1 ()) with
      Search.Config.max_kernel_ops = 1;
      forloop_candidates = [ [||] ];
      kernel_op_menu = menu;
      block_op_menu = menu;
      time_budget_s = 0.0;
    }
  in
  Alcotest.(check bool) "no cut with relu" false (Search.Prefix.cuts cfg menu);
  let values = Search.Prefix.values (Search.Prefix.spec_goals spec) in
  Alcotest.(check int) "two atoms away at an atom per operator" 2
    (Search.Prefix.distance values [ Nf.nf_var "X" ]);
  let cands, stats = generate cfg spec in
  Alcotest.(check int) "no try cut" 0 (unreachable stats);
  Alcotest.(check bool) "relu(X) found at one operator" true
    (List.exists
       (fun (g : Graph.kernel_graph) ->
         Array.exists
           (fun (n : Graph.kernel_node) -> n.Graph.kop = Graph.K_prim (Op.Unary Op.Relu))
           g.Graph.knodes)
       cands)

(* The bound itself on hand-made prefixes: atoms and forms each count
   once, and a missing atom's bare form is not counted again. *)
let test_distance_counts () =
  let values spec = Search.Prefix.values (Search.Prefix.spec_goals spec) in
  let x = Nf.nf_var "X" in
  let v = values (sqrt_exp_spec ()) in
  Alcotest.(check int) "sqrt(exp X) from X" 2 (Search.Prefix.distance v [ x ]);
  Alcotest.(check int) "with exp X" 1
    (Search.Prefix.distance v [ x; Nf.nf_exp x ]);
  Alcotest.(check int) "with sqrt(exp X)" 0
    (Search.Prefix.distance v [ x; Nf.nf_exp x; Nf.nf_sqrt (Nf.nf_exp x) ]);
  let s = values (softmax_spec ()) in
  (* exp X, and the output; exp's argument X is an input *)
  Alcotest.(check int) "softmax from X" 2 (Search.Prefix.distance s [ x ]);
  Alcotest.(check int) "softmax with exp X" 1
    (Search.Prefix.distance s [ x; Nf.nf_exp x ]);
  let d = values (div_matmul_spec ~b:4 ~h:8 ~d:16) in
  Alcotest.(check int) "no atom: the output alone" 1
    (Search.Prefix.distance d (List.map Nf.nf_var [ "X"; "C"; "W" ]))

(* A goal whose atoms and forms need more than 62 bits takes no cut.
   The outputs exp X_i for i < k need 3k bits: k atoms, their k bare
   forms and k arguments. *)
let test_distance_past_width () =
  let xs k = List.init k (fun i -> Nf.nf_var (Printf.sprintf "X%d" i)) in
  let goals k = List.map Nf.nf_exp (xs k) in
  Alcotest.(check int) "20 atoms, 60 bits: each missing atom counts" 20
    (Search.Prefix.distance (Search.Prefix.values (goals 20)) (xs 20));
  let v = Search.Prefix.values (goals 21) in
  Alcotest.(check int) "21 atoms, 63 bits: no cut" 0
    (Search.Prefix.distance v (xs 21));
  Alcotest.(check int) "nor with no value at all" 0
    (Search.Prefix.distance v [])

let () =
  Alcotest.run "search"
    [
      ( "config",
        [
          Alcotest.test_case "menu derivation" `Quick
            test_config_menu_derivation;
          Alcotest.test_case "add kept for sums" `Quick
            test_config_keeps_add_for_sums;
        ] );
      ( "roots",
        [
          Alcotest.test_case "validity" `Quick test_roots_validity;
          Alcotest.test_case "divisibility" `Quick test_roots_divisibility;
          Alcotest.test_case "classes partition the roots" `Quick
            test_root_classes;
          Alcotest.test_case "classes emit every member's graphs" `Quick
            test_root_classes_emit_members;
          Alcotest.test_case "classes equal the list-based oracle's" `Quick
            test_root_classes_oracle;
        ] );
      ( "thread fusion",
        [
          Alcotest.test_case "fuses elementwise chains" `Quick
            test_thread_fusion;
          Alcotest.test_case "keeps matmuls at block level" `Quick
            test_thread_fusion_skips_matmul;
        ] );
      ( "generator",
        [
          Alcotest.test_case "discovers fused kernel" `Slow
            test_search_discovers_fused_kernel;
          Alcotest.test_case "kernel-level rewrite" `Quick
            test_search_kernel_level_rewrite;
          Alcotest.test_case "discovers fused softmax" `Slow
            test_search_discovers_fused_softmax;
          Alcotest.test_case "2-d grid search" `Slow test_search_2d_grid;
          Alcotest.test_case "pruning reduces time" `Quick
            test_pruning_reduces_search;
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "prune memo freed with the search" `Quick
            test_prune_memo_freed;
          Alcotest.test_case "node budget overshoot bounded" `Quick
            test_node_budget_overshoot;
          Alcotest.test_case "spec is always a candidate" `Quick
            test_spec_always_candidate;
        ] );
      ( "extension memo",
        [
          Alcotest.test_case "exact across two for-loops" `Quick
            test_memo_two_forloops;
          Alcotest.test_case "nothing outlives a search" `Quick
            test_memo_back_to_back;
        ] );
      ( "goal distance",
        [
          Alcotest.test_case "atoms each operator may make" `Quick
            test_atoms_made;
          prop_atom_lemma;
          Alcotest.test_case "atoms and forms counted once" `Quick
            test_distance_counts;
          Alcotest.test_case "ops + distance is consistent" `Quick
            test_distance_consistent;
          Alcotest.test_case "consistent on the case studies" `Slow
            test_distance_consistent_case_studies;
          Alcotest.test_case "same candidates, pruning on and off" `Quick
            test_distance_exact;
          Alcotest.test_case "a relu menu takes no cut" `Quick
            test_distance_relu_menu;
          Alcotest.test_case "past 62 bits takes no cut" `Quick
            test_distance_past_width;
        ] );
      ( "goal masks",
        [
          Alcotest.test_case "every interned value's mask is the scan's"
            `Quick test_goal_masks;
          Alcotest.test_case "past 62 outputs raises" `Quick
            test_goal_mask_width;
        ] );
      ( "packed ranks",
        [
          Alcotest.test_case "order is Canon.compare_rank's" `Quick
            test_packed_rank_order;
          Alcotest.test_case "past the width raises" `Quick
            test_packed_rank_width;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "one lane runs on the caller" `Quick
            test_lanes_one;
          Alcotest.test_case "lane 0's exception after the join" `Quick
            test_lanes_lane0_raises;
          Alcotest.test_case "helpers start on demand" `Quick
            test_lanes_on_demand;
          Alcotest.test_case "short 2-worker search: no domain" `Quick
            test_two_worker_search_no_domain;
          Alcotest.test_case "long search starts n - 1 helpers" `Quick
            test_long_search_starts_helpers;
          Alcotest.test_case "the pool spawns only for a hungry worker"
            `Quick test_pool_spawns_for_hungry;
          Alcotest.test_case "spawn and drain wake a parked worker" `Quick
            test_pool_park_wakes;
          Alcotest.test_case "pools share one worker key" `Quick
            test_pool_keys_once;
        ] );
      ( "parallel verify",
        [
          Alcotest.test_case "parallel winner equals sequential" `Slow
            test_parallel_matches_sequential_winner;
          Alcotest.test_case "deadline mid-run degrades cleanly" `Slow
            test_deadline_during_parallel_verify;
          Alcotest.test_case "expired deadline returns spec" `Quick
            test_expired_deadline_parallel_verify;
          Alcotest.test_case "a cut search keeps its verified incumbent"
            `Quick test_cut_search_keeps_incumbent;
        ] );
    ]
