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
  let o =
    Search.Generator.run ~config:cfg ~verify_all:true
      ~device:Gpusim.Device.a100 ~spec ()
  in
  let found_two_op =
    List.exists
      (fun (r : Search.Generator.result) ->
        Graph.kernel_op_count r.Search.Generator.graph = 2)
      o.Search.Generator.verified
  in
  Alcotest.(check bool) "found (X+Y)*Z" true found_two_op

let test_pruning_reduces_search () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let with_p =
    Search.Config.for_spec ~base:(small_config ~ops:3 ()) spec
  in
  let without_p =
    Search.Config.for_spec ~base:(small_config ~ops:3 ~pruning:false ()) spec
  in
  let t1, _ = Search.Generator.search_time ~config:with_p ~spec () in
  let t2, _ = Search.Generator.search_time ~config:without_p ~spec () in
  Alcotest.(check bool)
    (Printf.sprintf "pruned %.2fs < unpruned %.2fs" t1 t2)
    true (t1 < t2)

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
        (n > budget && n <= budget + ((workers - 1) * Obs.Profile.batch) + (workers * step)))
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
  (* Candidates are claimed from the cost-sorted array (hash tie-break),
     so the parallel first-winner must equal the sequential one, and the
     verify-all survivor sets must coincide element for element. *)
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let go workers verify_all =
    let cfg =
      {
        (Search.Config.for_spec ~base:(small_config ()) spec) with
        Search.Config.num_workers = workers;
      }
    in
    Search.Generator.run ~config:cfg ~verify_all ~device:Gpusim.Device.a100
      ~spec ()
  in
  let seq = go 1 false and par = go 4 false in
  (match (seq.Search.Generator.best, par.Search.Generator.best) with
  | Some a, Some b ->
      Alcotest.(check bool) "same first winner" true
        (Graph.equal a.Search.Generator.graph b.Search.Generator.graph);
      Alcotest.(check (float 1e-9)) "same winner cost"
        a.Search.Generator.cost.Gpusim.Cost.total_us
        b.Search.Generator.cost.Gpusim.Cost.total_us
  | _ -> Alcotest.fail "both searches must find a winner");
  let seq = go 1 true and par = go 4 true in
  Alcotest.(check int) "same verified count"
    (List.length seq.Search.Generator.verified)
    (List.length par.Search.Generator.verified);
  List.iter2
    (fun (a : Search.Generator.result) (b : Search.Generator.result) ->
      Alcotest.(check bool) "same survivors in the same cost order" true
        (Graph.equal a.Search.Generator.graph b.Search.Generator.graph))
    seq.Search.Generator.verified par.Search.Generator.verified

let test_deadline_during_parallel_verify () =
  (* A budget too small for the ops=8 space with 4 workers: wherever the
     deadline lands (enumeration or the parallel verify loop) the run
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
    Search.Generator.run ~config:cfg ~verify_all:true ~budget
      ~device:Gpusim.Device.a100 ~spec ()
  in
  Alcotest.(check bool) "stopped near the deadline" true
    (Unix.gettimeofday () -. t0 < 10.0);
  Alcotest.(check bool) "best-so-far returned" true
    (o.Search.Generator.best <> None);
  Alcotest.(check bool) "deadline recorded in degraded" true
    (List.mem "deadline" o.Search.Generator.degraded)

let test_expired_deadline_parallel_verify () =
  (* Deadline already in the past when verification starts: the parallel
     loop must hand back the spec immediately. *)
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

let check_pins name want got =
  Alcotest.(check (list int)) (name ^ "funnel") want.funnel got.funnel;
  Alcotest.(check (list (pair string int)))
    (name ^ "level totals") want.totals got.totals;
  Alcotest.(check string) (name ^ "candidate digest") want.digest got.digest

(* Recorded from the enumerator that made, normalized and prune-checked
   every extension at its birth prefix, before values were interned. *)
let div_two_loops =
  {
    funnel = [ 673_023; 234_467; 0; 148_019; 219_424; 167; 9108 ];
    totals =
      [
        ("search.block.expand_depth", 656_020);
        ("search.block.reject.dangling", 24_332);
        ("search.block.reject.phase", 27_185);
        ("search.block.reject_depth.canonical", 209_676);
        ("search.block.reject_depth.duplicate", 8958);
        ("search.block.reject_depth.memory", 0);
        ("search.block.reject_depth.pruned", 144_781);
        ("search.block.reject_depth.shape", 230_846);
        ("search.kernel.expand_depth", 17_003);
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
        ("search.block.reject_depth.canonical", 168_932);
        ("search.block.reject_depth.duplicate", 13_046);
        ("search.block.reject_depth.memory", 0);
        ("search.block.reject_depth.pruned", 111_689);
        ("search.block.reject_depth.shape", 237_064);
        ("search.kernel.expand_depth", 18_529);
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
  let blocks = Search.Block_enum.prepare cfg ~spec ~limits in
  List.iter
    (fun cls ->
      Search.Block_enum.search_root blocks ~memo:(fun () -> bmemo) ~budget
        ~emit cls)
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
  let escaped =
    Search.Generator.lanes 1 (fun i ->
        ran := (i, (Domain.self () :> int)) :: !ran)
  in
  let after = probe_domain () in
  Alcotest.(check int) "nothing escaped" 0 (List.length escaped);
  Alcotest.(check (list (pair int int)))
    "lane 0 on the caller" [ (0, caller) ] !ran;
  Alcotest.(check int) "no domain spawned" 1 (after - before)

(* Lane 0 dies after lane 1 has started; lane 1 still runs its work to
   the end, and the one exception comes back after the join. *)
let test_lanes_lane0_raises () =
  let started = Atomic.make false and finished = Atomic.make false in
  let escaped =
    Search.Generator.lanes 2 (fun i ->
        if i = 0 then begin
          while not (Atomic.get started) do
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
  match escaped with
  | [ Failure msg ] -> Alcotest.(check string) "reported once" "lane 0 died" msg
  | l -> Alcotest.failf "want one escaped exception, got %d" (List.length l)

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

let test_two_worker_search_one_domain () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let cfg =
    Search.Config.for_spec
      ~base:{ (small_config ~ops:2 ()) with Search.Config.num_workers = 2 }
      spec
  in
  let before = probe_domain () in
  let _, exhausted, crashes =
    Search.Generator.generate cfg ~spec
      ~solver:(Smtlite.Solver.create ~target:(Abstract.output_exprs spec))
      ~stats:(Search.Stats.create ())
      ~limits:(Gpusim.Device.limits Gpusim.Device.a100)
      ~budget:(Search.Budget.of_config cfg) ()
  in
  let after = probe_domain () in
  Alcotest.(check bool) "ran to completion" false (exhausted || crashes > 0);
  Alcotest.(check int) "one domain started" 1 (after - before - 1)

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
          Alcotest.test_case "pruning reduces time" `Slow
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
          Alcotest.test_case "a 2-worker search starts one domain" `Quick
            test_two_worker_search_one_domain;
          Alcotest.test_case "the pool spawns only for a hungry worker"
            `Quick test_pool_spawns_for_hungry;
        ] );
      ( "parallel verify",
        [
          Alcotest.test_case "parallel winner equals sequential" `Slow
            test_parallel_matches_sequential_winner;
          Alcotest.test_case "deadline mid-run degrades cleanly" `Slow
            test_deadline_during_parallel_verify;
          Alcotest.test_case "expired deadline returns spec" `Quick
            test_expired_deadline_parallel_verify;
        ] );
    ]
