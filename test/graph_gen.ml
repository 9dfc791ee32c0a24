(* QCheck generators of random small tensor programs (kernel graphs of
   pre-defined operators), shared by the property-test suites.

   Generated graphs are well-formed by construction: operators are drawn
   only when their shape constraints hold against already-available
   tensors, and the graph output is the last produced tensor. *)

open Mugraph

type spec = {
  graph : Graph.kernel_graph;
  float_inputs : float Tensor.Dense.t list;
}

let shapes_pool = [ [| 2; 3 |]; [| 3; 3 |]; [| 3; 2 |]; [| 2; 2 |] ]

(* All (op, inputs) moves applicable to the current tensors. *)
let applicable_moves ~lax_only tensors =
  let n = List.length tensors in
  let shape i = List.nth tensors i in
  let moves = ref [] in
  let add p ins = moves := (p, ins) :: !moves in
  for i = 0 to n - 1 do
    let si = shape i in
    add (Op.Unary Op.Sqr) [ i ];
    add (Op.Unary Op.Exp) [ i ];
    if not lax_only then begin
      add (Op.Unary Op.Relu) [ i ];
      (* Exp drawn four times as often, so that a LAX path applying it
         twice (which the partitioner must split) is common: at equal
         weight about one graph in 300 had one *)
      for _ = 1 to 3 do
        add (Op.Unary Op.Exp) [ i ]
      done
    end;
    add (Op.Unary Op.Sqrt) [ i ];
    add Op.Transpose [ i ];
    Array.iteri
      (fun d size -> if size > 1 then add (Op.Sum { dim = d; group = size }) [ i ])
      si;
    for j = 0 to n - 1 do
      let sj = shape j in
      if Tensor.Shape.broadcast_compatible si sj then begin
        add (Op.Binary Op.Add) [ i; j ];
        add (Op.Binary Op.Mul) [ i; j ];
        add (Op.Binary Op.Div) [ i; j ];
        add (Op.Binary Op.Sub) [ i; j ]
      end;
      if
        Tensor.Shape.rank si = 2
        && Tensor.Shape.rank sj = 2
        && si.(1) = sj.(0)
      then add Op.Matmul [ i; j ]
    done
  done;
  !moves

(* Build a random graph with [n_inputs] inputs and [n_ops] operators.
   With [lax_only], at most one Exp is inserted so the graph stays LAX;
   without it, Exp may repeat, so a path can apply it twice. *)
let gen_graph ?(lax_only = true) () =
  let open QCheck2.Gen in
  let* n_inputs = int_range 1 3 in
  let* n_ops = int_range 1 5 in
  let* input_shapes = list_repeat n_inputs (oneofl shapes_pool) in
  let* seeds = list_repeat n_ops (int_range 0 1_000_000) in
  let bld = Graph.Build.create () in
  let refs =
    List.mapi
      (fun i s -> Graph.Build.input bld (Printf.sprintf "I%d" i) s)
      input_shapes
  in
  let tensors = ref (List.map (fun s -> Tensor.Shape.create s) input_shapes) in
  let refs = ref refs in
  let exp_used = ref false in
  List.iter
    (fun seed ->
      let moves =
        applicable_moves ~lax_only !tensors
        |> List.filter (fun (p, _) ->
               match p with
               | Op.Unary Op.Exp -> not (lax_only && !exp_used)
               | _ -> true)
      in
      match moves with
      | [] -> ()
      | _ ->
          let p, ins = List.nth moves (seed mod List.length moves) in
          (if p = Op.Unary Op.Exp then exp_used := true);
          let in_refs = List.map (List.nth !refs) ins in
          let in_shapes = List.map (List.nth !tensors) ins in
          let r = Graph.Build.prim bld p in_refs in
          refs := !refs @ [ r ];
          tensors := !tensors @ [ Op.infer_shape p in_shapes ])
    seeds;
  let out = List.nth !refs (List.length !refs - 1) in
  return (Graph.Build.finish bld ~outputs:[ out ])

let gen_with_inputs ?(lax_only = true) () =
  let open QCheck2.Gen in
  let* graph = gen_graph ~lax_only () in
  let* seed = int_range 0 1_000_000 in
  let st = Random.State.make [| seed |] in
  let float_inputs =
    List.map
      (fun shape ->
        Tensor.Dense.init shape (fun _ ->
            (* keep away from 0 so divisions are stable *)
            0.25 +. Random.State.float st 1.5))
      (Graph.input_names graph
      |> List.map (fun _ -> ())
      |> List.map2 (fun s () -> s) (Graph.input_shapes graph))
  in
  return { graph; float_inputs }

let print_spec s = Pretty.kernel_graph_to_string s.graph
