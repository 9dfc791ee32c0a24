open Mugraph
module Shape = Tensor.Shape
module Layout = Tensor.Layout

type ctx = { mutable next : int }

let fresh ctx prefix =
  let i = ctx.next in
  ctx.next <- i + 1;
  Printf.sprintf "%s%d" prefix i

(* A loop of extent 1 contributes coordinate 0 without emitting a loop,
   which keeps reduced-size programs readable and fold-friendly. *)
let for_loop ctx ?(kind = Ir.Serial) ?(prefix = "i") n
    (body : Ir.iexp -> Ir.stmt list) =
  if n = 1 then body (Ir.iconst 0)
  else
    let v = fresh ctx prefix in
    [ Ir.For { v; n; kind; body = body (Ir.ivar v) } ]

let axis_loop kind v n (body : Ir.iexp -> Ir.stmt list) =
  if n = 1 then body (Ir.iconst 0)
  else [ Ir.For { v; n; kind; body = body (Ir.ivar v) } ]

let loop_nest ctx shape (body : Ir.iexp array -> Ir.stmt list) =
  let rank = Array.length shape in
  let coords = Array.make rank (Ir.iconst 0) in
  let rec go d =
    if d = rank then body (Array.copy coords)
    else
      for_loop ctx shape.(d) (fun c ->
          coords.(d) <- c;
          go (d + 1))
  in
  go 0

(* Right-aligned broadcast: [coords] ranges over the output shape (or a
   suffix-aligned batch of it); size-1 input dims pin to 0. *)
let bcast_coords coords in_shape =
  let ro = Array.length coords and ri = Array.length in_shape in
  Array.init ri (fun d ->
      if in_shape.(d) = 1 then Ir.iconst 0 else coords.(ro - ri + d))

let store dst co e = Ir.Store { dst; idx = Ir.index dst co; e }
let load (b : Ir.buf) co = Ir.Load (b, Ir.index b co)

(* Annotation in the historical pseudo-library vocabulary; both backends
   print these comments above the corresponding loop nest. *)
let call_label (p : Op.prim) args out =
  let a n = List.nth args n in
  match p with
  | Op.Matmul -> Printf.sprintf "mma_tile(%s, %s, %s)" out (a 0) (a 1)
  | Op.Binary b ->
      let f =
        match b with
        | Op.Add -> "ew_add"
        | Op.Mul -> "ew_mul"
        | Op.Div -> "ew_div"
        | Op.Sub -> "ew_sub"
      in
      Printf.sprintf "%s(%s, %s, %s)" f out (a 0) (a 1)
  | Op.Unary u ->
      let f =
        match u with
        | Op.Exp -> "ew_exp"
        | Op.Sqr -> "ew_sqr"
        | Op.Sqrt -> "ew_sqrt"
        | Op.Silu -> "ew_silu"
        | Op.Relu -> "ew_relu"
      in
      Printf.sprintf "%s(%s, %s)" f out (a 0)
  | Op.Sum { dim; group } ->
      Printf.sprintf "reduce_sum<%d, %d>(%s, %s)" dim group out (a 0)
  | Op.Repeat { dim; times } ->
      Printf.sprintf "repeat<%d, %d>(%s, %s)" dim times out (a 0)
  | Op.Reshape _ -> Printf.sprintf "reshape(%s, %s)" out (a 0)
  | Op.Transpose -> Printf.sprintf "transpose(%s, %s)" out (a 0)
  | Op.Concat_matmul ->
      Printf.sprintf "concat_mma(%s, %s, %s, %s, %s)" out (a 0) (a 1) (a 2)
        (a 3)

(* Lower one primitive into [dst], reading [ins]; works uniformly over
   Global, Shared and Local buffers, so kernel-level library ops, block
   prims and thread-graph nodes all share it. *)
let op_lower ctx (p : Op.prim) ~(dst : Ir.buf) ~(ins : Ir.buf list) :
    Ir.stmt list =
  match (p, ins) with
  | Op.Binary b, [ x; y ] ->
      loop_nest ctx dst.shape (fun co ->
          [
            store dst co
              (Ir.Bin
                 ( b,
                   load x (bcast_coords co x.shape),
                   load y (bcast_coords co y.shape) ));
          ])
  | Op.Unary u, [ x ] ->
      loop_nest ctx dst.shape (fun co -> [ store dst co (Ir.Un (u, load x co)) ])
  | Op.Matmul, [ a; b ] ->
      let ra = Array.length a.shape and rb = Array.length b.shape in
      let ro = Array.length dst.shape in
      let k = a.shape.(ra - 1) in
      loop_nest ctx dst.shape (fun co ->
          let batch = Array.sub co 0 (ro - 2) in
          let m = co.(ro - 2) and n = co.(ro - 1) in
          let ab = bcast_coords batch (Array.sub a.shape 0 (ra - 2)) in
          let bb = bcast_coords batch (Array.sub b.shape 0 (rb - 2)) in
          let acc = fresh ctx "acc" in
          (Ir.Decl { v = acc; init = Ir.Const 0.0 }
          :: for_loop ctx ~kind:Ir.Reduce ~prefix:"r" k (fun r ->
                 [
                   Ir.Assign
                     {
                       v = acc;
                       e =
                         Ir.Bin
                           ( Op.Add,
                             Ir.Temp acc,
                             Ir.Bin
                               ( Op.Mul,
                                 load a (Array.append ab [| m; r |]),
                                 load b (Array.append bb [| r; n |]) ) );
                     };
                 ]))
          @ [ store dst co (Ir.Temp acc) ])
  | Op.Sum { dim; group }, [ x ] ->
      loop_nest ctx dst.shape (fun co ->
          let acc = fresh ctx "acc" in
          (Ir.Decl { v = acc; init = Ir.Const 0.0 }
          :: for_loop ctx ~kind:Ir.Reduce ~prefix:"r" group (fun g ->
                 let ci = Array.copy co in
                 ci.(dim) <- Ir.iadd (Ir.imul co.(dim) (Ir.iconst group)) g;
                 [
                   Ir.Assign
                     {
                       v = acc;
                       e = Ir.Bin (Op.Add, Ir.Temp acc, load x ci);
                     };
                 ]))
          @ [ store dst co (Ir.Temp acc) ])
  | Op.Repeat { dim; _ }, [ x ] ->
      loop_nest ctx dst.shape (fun co ->
          let ci = Array.copy co in
          ci.(dim) <- Ir.imod co.(dim) (Ir.iconst x.shape.(dim));
          [ store dst co (load x ci) ])
  | Op.Reshape _, [ x ]
    when Ir.strides x = Layout.strides Layout.Row_major x.shape
         && Ir.strides dst = Layout.strides Layout.Row_major dst.shape ->
      (* Both buffers row-major: element i of one is element i of the
         other, so one flat loop copies them. *)
      for_loop ctx (Ir.numel dst) (fun i ->
          [ Ir.Store { dst; idx = i; e = Ir.Load (x, i) } ])
  | Op.Reshape _, [ x ] ->
      (* Row-major reinterpretation: linearize the output coordinate and
         delinearize over the input shape. *)
      let rmo = Layout.strides Layout.Row_major dst.shape in
      let rmi = Layout.strides Layout.Row_major x.shape in
      loop_nest ctx dst.shape (fun co ->
          let lin = ref (Ir.iconst 0) in
          Array.iteri
            (fun d c -> lin := Ir.iadd !lin (Ir.imul c (Ir.iconst rmo.(d))))
            co;
          let ci =
            Array.init (Array.length x.shape) (fun j ->
                Ir.imod
                  (Ir.idiv !lin (Ir.iconst rmi.(j)))
                  (Ir.iconst x.shape.(j)))
          in
          [ store dst co (load x ci) ])
  | Op.Transpose, [ x ] ->
      let r = Array.length dst.shape in
      loop_nest ctx dst.shape (fun co ->
          let ci = Array.copy co in
          ci.(r - 2) <- co.(r - 1);
          ci.(r - 1) <- co.(r - 2);
          [ store dst co (load x ci) ])
  | Op.Concat_matmul, [ w; x; y; z ] ->
      let k1 = w.shape.(1) and k2 = x.shape.(1) in
      loop_nest ctx dst.shape (fun co ->
          let m = co.(0) and n = co.(1) in
          let acc = fresh ctx "acc" in
          let dot u v k =
            for_loop ctx ~kind:Ir.Reduce ~prefix:"r" k (fun r ->
                [
                  Ir.Assign
                    {
                      v = acc;
                      e =
                        Ir.Bin
                          ( Op.Add,
                            Ir.Temp acc,
                            Ir.Bin
                              (Op.Mul, load u [| m; r |], load v [| r; n |]) );
                    };
                ])
          in
          (Ir.Decl { v = acc; init = Ir.Const 0.0 } :: dot w y k1)
          @ dot x z k2
          @ [ store dst co (Ir.Temp acc) ])
  | _ ->
      invalid_arg
        (Printf.sprintf "Lower.op_lower: %s with %d inputs" (Op.name p)
           (List.length ins))

(* ------------------------------------------------------------------ *)
(* Block (graph-defined) kernels                                       *)
(* ------------------------------------------------------------------ *)

let lower_block ctx ~kname ~(kin_bufs : Ir.buf list)
    ~(assignment : Opt.Layout_opt.assignment option) (bg : Graph.block_graph) :
    Ir.kernel =
  let kin = Array.of_list kin_bufs in
  let kin_shapes =
    List.map (fun (b : Ir.buf) -> Shape.create b.Ir.shape) kin_bufs
  in
  let shapes = Infer.block_shapes bg ~kernel_inputs:kin_shapes in
  let plan = Opt.Memplan.plan_block ~elt_bytes:2 bg ~kernel_inputs:kin_shapes in
  let offset i =
    match List.assoc_opt i plan.Opt.Memplan.offsets with
    | Some o -> o
    | None -> 0
  in
  let layout_of i =
    match assignment with
    | None -> Layout.Row_major
    | Some a -> (
        match List.assoc_opt i a.Opt.Layout_opt.layouts with
        | Some l when Layout.is_valid l shapes.(i) -> l
        | _ -> Layout.Row_major)
  in
  let n = Array.length bg.bnodes in
  let sbuf = Array.make n None in
  Array.iteri
    (fun i (node : Graph.block_node) ->
      match node.bop with
      | Graph.B_outsaver _ -> ()
      | _ ->
          sbuf.(i) <-
            Some
              {
                Ir.bname = Printf.sprintf "s%d" i;
                space = Ir.Shared;
                shape = Array.copy shapes.(i);
                layout = layout_of i;
              })
    bg.bnodes;
  let sb i = Option.get sbuf.(i) in
  (* Out formals in outsaver order, at kernel-level (omap-assembled)
     shapes. *)
  let outs =
    let acc = ref [] and j = ref 0 in
    Array.iteri
      (fun i (node : Graph.block_node) ->
        match node.bop with
        | Graph.B_outsaver { omap } ->
            let b =
              {
                Ir.bname = Printf.sprintf "o%d" !j;
                space = Ir.Global;
                shape = Array.copy shapes.(i);
                layout = Layout.Row_major;
              }
            in
            incr j;
            acc := (i, omap, b) :: !acc
        | _ -> ())
      bg.bnodes;
    List.rev !acc
  in
  let locals = ref [] in
  let sched = Opt.Schedule.block_schedule bg in
  let post = Graph.post_loop_nodes bg in
  let is_accum i =
    match bg.bnodes.(i).bop with Graph.B_accum _ -> true | _ -> false
  in
  let is_outsaver i =
    match bg.bnodes.(i).bop with Graph.B_outsaver _ -> true | _ -> false
  in
  let emit_node gvars fvars i : Ir.stmt list =
    let node = bg.bnodes.(i) in
    match node.bop with
    | Graph.B_initer { input; imap; fmap } ->
        let src = kin.(input) in
        let dst = sb i in
        let rank = Array.length src.Ir.shape in
        let cur = Array.copy src.Ir.shape in
        let offs = Array.make rank (Ir.iconst 0) in
        (* Sequential slicing, exactly as Dmap.slice: each map entry
           offsets into the remaining extent of its data dim, then
           shrinks it. *)
        let apply maps counts vars =
          Array.iteri
            (fun k t ->
              match t with
              | Dmap.Dim d ->
                  let chunk = cur.(d) / counts.(k) in
                  offs.(d) <-
                    Ir.iadd offs.(d) (Ir.imul vars.(k) (Ir.iconst chunk));
                  cur.(d) <- chunk
              | Dmap.Replica -> ())
            maps
        in
        apply imap bg.grid gvars;
        apply fmap bg.forloop fvars;
        Ir.Comment
          (Printf.sprintf "copy_tile(%s, %s, %s, %s)" dst.Ir.bname
             src.Ir.bname (Dmap.imap_to_string imap)
             (Dmap.fmap_to_string fmap))
        :: loop_nest ctx dst.Ir.shape (fun co ->
               let sco = Array.mapi (fun d c -> Ir.iadd c offs.(d)) co in
               [ store dst co (load src sco) ])
    | Graph.B_prim p ->
        let ins = List.map sb node.bins in
        Ir.Comment
          (call_label p
             (List.map (fun (b : Ir.buf) -> b.Ir.bname) ins)
             (sb i).Ir.bname)
        :: op_lower ctx p ~dst:(sb i) ~ins
    | Graph.B_threadgraph tg ->
        let bin_arr = Array.of_list (List.map sb node.bins) in
        let tshapes =
          Infer.thread_shapes tg
            ~inputs:
              (List.map
                 (fun (b : Ir.buf) -> Shape.create b.Ir.shape)
                 (Array.to_list bin_arr))
        in
        let nt = Array.length tg.tnodes in
        let tvals = Array.make nt None in
        let stmts = ref [] in
        Array.iteri
          (fun j (tn : Graph.thread_node) ->
            match tn.top with
            | Graph.T_input k -> tvals.(j) <- Some bin_arr.(k)
            | Graph.T_prim p ->
                let dst =
                  if j = nt - 1 then sb i
                  else begin
                    let b =
                      {
                        Ir.bname = Printf.sprintf "r%d_%d" i j;
                        space = Ir.Local;
                        shape = Array.copy tshapes.(j);
                        layout = Layout.Row_major;
                      }
                    in
                    locals := b :: !locals;
                    b
                  end
                in
                tvals.(j) <- Some dst;
                stmts :=
                  !stmts
                  @ op_lower ctx p ~dst
                      ~ins:(List.map (fun q -> Option.get tvals.(q)) tn.tins))
          tg.tnodes;
        Ir.Comment
          (Printf.sprintf
             "thread_graph(%s; %s): intermediates in the register file"
             (sb i).Ir.bname
             (String.concat ", "
                (Array.to_list
                   (Array.map (fun (b : Ir.buf) -> b.Ir.bname) bin_arr))))
        :: !stmts
    | Graph.B_accum { fmap } ->
        let src = sb (List.hd node.bins) in
        let dst = sb i in
        let tile = src.Ir.shape in
        (* Loop coordinate l lands at offset l * mult along its data dim,
           where mult covers the extents of later loop axes mapped to the
           same dim — concatenation in row-major mesh order, matching
           Interp.combine_mesh. Replica axes contribute no offset: the
           repeated += realizes their elementwise sum. *)
        let nl = Array.length fmap in
        let mults = Array.make nl 0 in
        for l = 0 to nl - 1 do
          match fmap.(l) with
          | Dmap.Replica -> ()
          | Dmap.Dim d ->
              let later = ref 1 in
              for l' = l + 1 to nl - 1 do
                match fmap.(l') with
                | Dmap.Dim d' when d' = d -> later := !later * bg.forloop.(l')
                | _ -> ()
              done;
              mults.(l) <- tile.(d) * !later
        done;
        Ir.Comment
          (Printf.sprintf "accumulate(%s, %s, %s)" dst.Ir.bname src.Ir.bname
             (Dmap.fmap_to_string fmap))
        :: loop_nest ctx tile (fun co ->
               let dco = Array.copy co in
               Array.iteri
                 (fun l t ->
                   match t with
                   | Dmap.Dim d ->
                       dco.(d) <-
                         Ir.iadd dco.(d)
                           (Ir.imul fvars.(l) (Ir.iconst mults.(l)))
                   | Dmap.Replica -> ())
                 fmap;
               [
                 Ir.Store_add
                   { dst; idx = Ir.index dst dco; e = load src co };
               ])
    | Graph.B_outsaver _ -> []
  in
  let zero_accums =
    List.concat_map
      (fun i ->
        if is_accum i then
          let b = sb i in
          Ir.Comment (Printf.sprintf "%s = 0" b.Ir.bname)
          :: loop_nest ctx b.Ir.shape (fun co ->
                 [ store b co (Ir.Const 0.0) ])
        else [])
      (List.init n Fun.id)
  in
  let loop_body gvars fvars =
    let last_depth = ref (-1) in
    List.concat_map
      (fun i ->
        if is_outsaver i || (post.(i) && not (is_accum i)) then []
        else begin
          let d = sched.Opt.Schedule.depths.(i) in
          let bar =
            if !last_depth >= 0 && d <> !last_depth then [ Ir.Barrier ]
            else []
          in
          last_depth := d;
          bar @ emit_node gvars fvars i
        end)
      sched.Opt.Schedule.order
  in
  let epilogue gvars =
    List.concat_map
      (fun i ->
        if post.(i) && (not (is_accum i)) && not (is_outsaver i) then
          emit_node gvars [||] i
        else [])
      sched.Opt.Schedule.order
  in
  let save_outputs gvars =
    List.concat_map
      (fun (i, omap, obuf) ->
        let node = bg.bnodes.(i) in
        let src = sb (List.hd node.bins) in
        let tile = src.Ir.shape in
        Ir.Comment
          (Printf.sprintf "store_tile(%s, %s, %s)" obuf.Ir.bname
             src.Ir.bname (Dmap.omap_to_string omap))
        :: loop_nest ctx tile (fun co ->
               let dco = Array.copy co in
               Array.iteri
                 (fun a d ->
                   dco.(d) <-
                     Ir.iadd dco.(d) (Ir.imul gvars.(a) (Ir.iconst tile.(d))))
                 omap;
               [ store obuf dco (load src co) ]))
      outs
  in
  (* The (at most two) data-stream loop variables keep the traditional
     names i and j. *)
  let rec forloops l acc k =
    if l = Array.length bg.forloop then k (Array.of_list (List.rev acc))
    else
      axis_loop (Ir.Forloop l)
        (if l = 0 then "i" else "j")
        bg.forloop.(l)
        (fun c -> forloops (l + 1) (c :: acc) k)
  in
  let rec gridloops a acc k =
    if a = Array.length bg.grid then k (Array.of_list (List.rev acc))
    else
      axis_loop (Ir.Grid a)
        (Printf.sprintf "g%d" a)
        bg.grid.(a)
        (fun c -> gridloops (a + 1) (c :: acc) k)
  in
  let body =
    gridloops 0 [] (fun gvars ->
        zero_accums
        @ forloops 0 [] (fun fvars -> loop_body gvars fvars)
        @ [ Ir.Barrier ]
        @ epilogue gvars
        @ save_outputs gvars)
  in
  {
    Ir.kname;
    params = kin_bufs @ List.map (fun (_, _, b) -> b) outs;
    n_inputs = List.length kin_bufs;
    shared =
      List.filter_map
        (fun i ->
          match sbuf.(i) with Some b -> Some (b, offset i) | None -> None)
        (List.init n Fun.id);
    locals = List.rev !locals;
    grid = Array.copy bg.grid;
    forloop = Array.copy bg.forloop;
    smem_bytes = plan.Opt.Memplan.peak_bytes;
    planner_optimal = plan.Opt.Memplan.optimal;
    body;
  }

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

let nests ?layouts ~name (g : Graph.kernel_graph) : Ir.program =
  let shapes = Infer.kernel_shapes g in
  let layouts =
    match layouts with Some l -> l | None -> Opt.Layout_opt.optimize g
  in
  let n = Array.length g.knodes in
  let gbufs = Array.make n [||] in
  let inputs = ref [] in
  let input_idx = ref 0 in
  Array.iteri
    (fun i (node : Graph.kernel_node) ->
      match node.kop with
      | Graph.K_input _ ->
          let b =
            {
              Ir.bname = Printf.sprintf "in_%d" !input_idx;
              space = Ir.Global;
              shape = Array.copy shapes.(i).(0);
              layout = Layout.Row_major;
            }
          in
          incr input_idx;
          inputs := b :: !inputs;
          gbufs.(i) <- [| b |]
      | _ ->
          gbufs.(i) <-
            Array.init
              (Graph.num_outputs node.kop)
              (fun p ->
                {
                  Ir.bname = Printf.sprintf "t%d_%d" i p;
                  space = Ir.Global;
                  shape = Array.copy shapes.(i).(p);
                  layout = Layout.Row_major;
                }))
    g.knodes;
  let kernels = ref [] and calls = ref [] in
  Array.iteri
    (fun i (node : Graph.kernel_node) ->
      let actual_ins =
        List.map
          (fun (r : Graph.tensor_ref) -> gbufs.(r.node).(r.port))
          node.kins
      in
      let formals_in =
        List.mapi
          (fun j (b : Ir.buf) -> { b with Ir.bname = Printf.sprintf "a%d" j })
          actual_ins
      in
      match node.kop with
      | Graph.K_input _ -> ()
      | Graph.K_prim p ->
          let ctx = { next = 0 } in
          let out = gbufs.(i).(0) in
          let formal_out = { out with Ir.bname = "o0" } in
          let kname = Printf.sprintf "%s_op_%d" name i in
          let body =
            Ir.Comment
              (Printf.sprintf "o0 = %s(%s)" (Op.to_string p)
                 (String.concat ", "
                    (List.map (fun (b : Ir.buf) -> b.Ir.bname) formals_in)))
            :: op_lower ctx p ~dst:formal_out ~ins:formals_in
          in
          kernels :=
            {
              Ir.kname;
              params = formals_in @ [ formal_out ];
              n_inputs = List.length formals_in;
              shared = [];
              locals = [];
              grid = [||];
              forloop = [||];
              smem_bytes = 0;
              planner_optimal = true;
              body;
            }
            :: !kernels;
          calls := (kname, actual_ins @ [ out ]) :: !calls
      | Graph.K_graphdef bg ->
          let ctx = { next = 0 } in
          let kname = Printf.sprintf "%s_kernel_%d" name i in
          let assignment = List.assoc_opt i layouts in
          let ker = lower_block ctx ~kname ~kin_bufs:formals_in ~assignment bg in
          kernels := ker :: !kernels;
          calls := (kname, actual_ins @ Array.to_list gbufs.(i)) :: !calls)
    g.knodes;
  let temps =
    List.concat
      (List.filteri
         (fun i _ ->
           match g.knodes.(i).kop with Graph.K_input _ -> false | _ -> true)
         (Array.to_list gbufs |> List.map Array.to_list))
  in
  let outputs =
    List.map (fun (r : Graph.tensor_ref) -> gbufs.(r.node).(r.port)) g.outputs
  in
  {
    Ir.pname = name;
    inputs = List.rev !inputs;
    input_names = Graph.input_names g;
    outputs;
    temps;
    kernels = List.rev !kernels;
    calls = List.rev !calls;
  }

let lower ?layouts ~name g = Ir.collapse (nests ?layouts ~name g)
