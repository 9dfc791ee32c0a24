(* Search checkpointing: persist, per piece, the generator's completed
   task cursor and its verified incumbent into the run directory as
   checkpoint.json, so a killed run resumes with
   `mirage_cli optimize --resume RUN_DIR` instead of discarding hours of
   enumeration.

   Tasks (the kernel-level pass plus one per root class) are
   deterministic given the spec and config, so a completed-task set
   keyed by task index is a sound cursor: resume skips those indices and
   re-runs only interrupted ones. The incumbent is installed inside the
   task that emitted it, before that task can complete, so every save at
   a task's completion holds an incumbent at least as good as any
   candidate of a completed task. *)

open Mugraph
module J = Obs.Jsonw

(* v2: a task index names a root class, not a root; a v1 cursor would
   skip the wrong tasks, so v1 files are refused. v3: a level whose
   inputs are beyond the goal distance has no task (the kernel task or
   every root class), so a v2 cursor is refused too. v4: a piece holds
   its verified incumbent in place of every emitted candidate. *)
let schema = "mirage.checkpoint.v4"

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

(* ------------------------------------------------------------------ *)
(* muGraph JSON codec                                                  *)
(* ------------------------------------------------------------------ *)

let ints_to_json a = J.List (Array.to_list (Array.map (fun i -> J.Int i) a))

let ints_of_json = function
  | J.List l ->
      Array.of_list
        (List.map
           (function J.Int i -> i | _ -> fail "int array: non-int element")
           l)
  | _ -> fail "int array: not a list"

let prim_to_json (p : Op.prim) =
  match p with
  | Op.Matmul -> J.Str "matmul"
  | Op.Binary Op.Add -> J.Str "add"
  | Op.Binary Op.Mul -> J.Str "mul"
  | Op.Binary Op.Div -> J.Str "div"
  | Op.Binary Op.Sub -> J.Str "sub"
  | Op.Unary Op.Exp -> J.Str "exp"
  | Op.Unary Op.Sqr -> J.Str "sqr"
  | Op.Unary Op.Sqrt -> J.Str "sqrt"
  | Op.Unary Op.Silu -> J.Str "silu"
  | Op.Unary Op.Relu -> J.Str "relu"
  | Op.Transpose -> J.Str "transpose"
  | Op.Concat_matmul -> J.Str "concat_matmul"
  | Op.Sum { dim; group } ->
      J.Obj [ ("op", J.Str "sum"); ("dim", J.Int dim); ("group", J.Int group) ]
  | Op.Repeat { dim; times } ->
      J.Obj
        [ ("op", J.Str "repeat"); ("dim", J.Int dim); ("times", J.Int times) ]
  | Op.Reshape s -> J.Obj [ ("op", J.Str "reshape"); ("shape", ints_to_json s) ]

let int_field k j =
  match J.member k j with
  | Some (J.Int i) -> i
  | _ -> fail "missing int field %S" k

let prim_of_json j : Op.prim =
  match j with
  | J.Str "matmul" -> Op.Matmul
  | J.Str "add" -> Op.Binary Op.Add
  | J.Str "mul" -> Op.Binary Op.Mul
  | J.Str "div" -> Op.Binary Op.Div
  | J.Str "sub" -> Op.Binary Op.Sub
  | J.Str "exp" -> Op.Unary Op.Exp
  | J.Str "sqr" -> Op.Unary Op.Sqr
  | J.Str "sqrt" -> Op.Unary Op.Sqrt
  | J.Str "silu" -> Op.Unary Op.Silu
  | J.Str "relu" -> Op.Unary Op.Relu
  | J.Str "transpose" -> Op.Transpose
  | J.Str "concat_matmul" -> Op.Concat_matmul
  | J.Str s -> fail "unknown primitive %S" s
  | J.Obj _ -> (
      match J.member "op" j with
      | Some (J.Str "sum") ->
          Op.Sum { dim = int_field "dim" j; group = int_field "group" j }
      | Some (J.Str "repeat") ->
          Op.Repeat { dim = int_field "dim" j; times = int_field "times" j }
      | Some (J.Str "reshape") -> (
          match J.member "shape" j with
          | Some s -> Op.Reshape (ints_of_json s)
          | None -> fail "reshape without shape")
      | _ -> fail "unknown structured primitive")
  | _ -> fail "primitive: not a string or object"

let target_to_json = function
  | Dmap.Dim d -> J.Int d
  | Dmap.Replica -> J.Str "phi"

let target_of_json = function
  | J.Int d -> Dmap.Dim d
  | J.Str "phi" -> Dmap.Replica
  | _ -> fail "dimension target: want int or \"phi\""

let targets_to_json a = J.List (Array.to_list (Array.map target_to_json a))

let targets_of_json = function
  | J.List l -> Array.of_list (List.map target_of_json l)
  | _ -> fail "target array: not a list"

let thread_graph_to_json (tg : Graph.thread_graph) =
  J.List
    (Array.to_list
       (Array.map
          (fun (n : Graph.thread_node) ->
            J.Obj
              (( "t",
                 match n.top with
                 | Graph.T_input i -> J.Obj [ ("input", J.Int i) ]
                 | Graph.T_prim p -> prim_to_json p )
              :: [ ("ins", J.List (List.map (fun i -> J.Int i) n.tins)) ]))
          tg.Graph.tnodes))

let int_list_of_json = function
  | J.List l ->
      List.map
        (function J.Int i -> i | _ -> fail "int list: non-int element")
        l
  | _ -> fail "int list: not a list"

let thread_graph_of_json = function
  | J.List l ->
      {
        Graph.tnodes =
          Array.of_list
            (List.map
               (fun n ->
                 let top =
                   match J.member "t" n with
                   | Some (J.Obj _ as o) when J.member "input" o <> None ->
                       Graph.T_input (int_field "input" o)
                   | Some p -> Graph.T_prim (prim_of_json p)
                   | None -> fail "thread node without op"
                 in
                 let tins =
                   match J.member "ins" n with
                   | Some ins -> int_list_of_json ins
                   | None -> fail "thread node without ins"
                 in
                 { Graph.top; tins })
               l);
      }
  | _ -> fail "thread graph: not a list"

let block_op_to_json (bop : Graph.block_op) =
  match bop with
  | Graph.B_initer { input; imap; fmap } ->
      J.Obj
        [
          ("k", J.Str "initer");
          ("input", J.Int input);
          ("imap", targets_to_json imap);
          ("fmap", targets_to_json fmap);
        ]
  | Graph.B_prim p -> J.Obj [ ("k", J.Str "prim"); ("op", prim_to_json p) ]
  | Graph.B_accum { fmap } ->
      J.Obj [ ("k", J.Str "accum"); ("fmap", targets_to_json fmap) ]
  | Graph.B_outsaver { omap } ->
      J.Obj [ ("k", J.Str "outsaver"); ("omap", ints_to_json omap) ]
  | Graph.B_threadgraph tg ->
      J.Obj [ ("k", J.Str "threadgraph"); ("tnodes", thread_graph_to_json tg) ]

let member_exn k j =
  match J.member k j with Some v -> v | None -> fail "missing field %S" k

let block_op_of_json j : Graph.block_op =
  match J.member "k" j with
  | Some (J.Str "initer") ->
      Graph.B_initer
        {
          input = int_field "input" j;
          imap = targets_of_json (member_exn "imap" j);
          fmap = targets_of_json (member_exn "fmap" j);
        }
  | Some (J.Str "prim") -> Graph.B_prim (prim_of_json (member_exn "op" j))
  | Some (J.Str "accum") ->
      Graph.B_accum { fmap = targets_of_json (member_exn "fmap" j) }
  | Some (J.Str "outsaver") ->
      Graph.B_outsaver { omap = ints_of_json (member_exn "omap" j) }
  | Some (J.Str "threadgraph") ->
      Graph.B_threadgraph (thread_graph_of_json (member_exn "tnodes" j))
  | _ -> fail "unknown block op"

let block_graph_to_json (bg : Graph.block_graph) =
  J.Obj
    [
      ("grid", ints_to_json bg.Graph.grid);
      ("forloop", ints_to_json bg.Graph.forloop);
      ( "bnodes",
        J.List
          (Array.to_list
             (Array.map
                (fun (n : Graph.block_node) ->
                  J.Obj
                    [
                      ("op", block_op_to_json n.bop);
                      ("ins", J.List (List.map (fun i -> J.Int i) n.bins));
                    ])
                bg.Graph.bnodes)) );
    ]

let block_graph_of_json j : Graph.block_graph =
  {
    Graph.grid = ints_of_json (member_exn "grid" j);
    forloop = ints_of_json (member_exn "forloop" j);
    bnodes =
      (match member_exn "bnodes" j with
      | J.List l ->
          Array.of_list
            (List.map
               (fun n ->
                 {
                   Graph.bop = block_op_of_json (member_exn "op" n);
                   bins = int_list_of_json (member_exn "ins" n);
                 })
               l)
      | _ -> fail "bnodes: not a list");
  }

let tensor_ref_to_json ({ node; port } : Graph.tensor_ref) =
  J.Obj [ ("n", J.Int node); ("p", J.Int port) ]

let tensor_ref_of_json j : Graph.tensor_ref =
  { node = int_field "n" j; port = int_field "p" j }

let kernel_op_to_json (kop : Graph.kernel_op) =
  match kop with
  | Graph.K_input { name; shape } ->
      J.Obj
        [
          ("k", J.Str "input");
          ("name", J.Str name);
          ("shape", ints_to_json shape);
        ]
  | Graph.K_prim p -> J.Obj [ ("k", J.Str "prim"); ("op", prim_to_json p) ]
  | Graph.K_graphdef bg ->
      J.Obj [ ("k", J.Str "graphdef"); ("bg", block_graph_to_json bg) ]

let kernel_op_of_json j : Graph.kernel_op =
  match J.member "k" j with
  | Some (J.Str "input") ->
      Graph.K_input
        {
          name =
            (match member_exn "name" j with
            | J.Str s -> s
            | _ -> fail "input name: not a string");
          shape = ints_of_json (member_exn "shape" j);
        }
  | Some (J.Str "prim") -> Graph.K_prim (prim_of_json (member_exn "op" j))
  | Some (J.Str "graphdef") ->
      Graph.K_graphdef (block_graph_of_json (member_exn "bg" j))
  | _ -> fail "unknown kernel op"

let graph_to_json (g : Graph.kernel_graph) =
  J.Obj
    [
      ( "knodes",
        J.List
          (Array.to_list
             (Array.map
                (fun (n : Graph.kernel_node) ->
                  J.Obj
                    [
                      ("op", kernel_op_to_json n.kop);
                      ("ins", J.List (List.map tensor_ref_to_json n.kins));
                    ])
                g.Graph.knodes)) );
      ("outputs", J.List (List.map tensor_ref_to_json g.Graph.outputs));
    ]

let graph_of_json_exn j : Graph.kernel_graph =
  let g =
    {
      Graph.knodes =
        (match member_exn "knodes" j with
        | J.List l ->
            Array.of_list
              (List.map
                 (fun n ->
                   {
                     Graph.kop = kernel_op_of_json (member_exn "op" n);
                     kins =
                       (match member_exn "ins" n with
                       | J.List refs -> List.map tensor_ref_of_json refs
                       | _ -> fail "kins: not a list");
                   })
                 l)
        | _ -> fail "knodes: not a list");
      outputs =
        (match member_exn "outputs" j with
        | J.List refs -> List.map tensor_ref_of_json refs
        | _ -> fail "outputs: not a list");
    }
  in
  (match Graph.validate g with
  | () -> ()
  | exception Graph.Ill_formed m -> fail "ill-formed graph: %s" m);
  g

let graph_of_json j =
  match graph_of_json_exn j with
  | g -> Ok g
  | exception Decode m -> Error m

(* ------------------------------------------------------------------ *)
(* Config fingerprint                                                  *)
(* ------------------------------------------------------------------ *)

(* Budget and worker-count fields are stripped: a resumed run typically
   gets a fresh (larger) budget and may use a different domain count,
   and neither changes the task list the cursor indexes into. *)
let config_fingerprint cfg_json =
  let stripped =
    match cfg_json with
    | J.Obj fields ->
        J.Obj
          (List.filter
             (fun (k, _) ->
               not
                 (List.mem k
                    [ "time_budget_s"; "node_budget"; "num_workers" ]))
             fields)
    | v -> v
  in
  Digest.to_hex (Digest.string (J.to_string stripped))

(* ------------------------------------------------------------------ *)
(* Manager                                                             *)
(* ------------------------------------------------------------------ *)

type piece_state = {
  mutable done_tasks : int list;
  mutable incumbent : (int * Graph.kernel_graph) option;
}

type t = {
  cpath : string;
  lock : Mutex.t;
  mutable pieces : (int * piece_state) list;
  mutable meta : (string * J.t) list;
}

let create ~path =
  { cpath = path; lock = Mutex.create (); pieces = []; meta = [] }

let set_meta t kvs =
  Mutex.protect t.lock (fun () ->
      List.iter
        (fun (k, v) -> t.meta <- (k, v) :: List.remove_assoc k t.meta)
        kvs)

let meta t k = Mutex.protect t.lock (fun () -> List.assoc_opt k t.meta)

let piece_locked t id =
  match List.assoc_opt id t.pieces with
  | Some p -> p
  | None ->
      let p = { done_tasks = []; incumbent = None } in
      t.pieces <- (id, p) :: t.pieces;
      p

let to_json_locked t =
  J.Obj
    [
      ("schema", J.Str schema);
      ("meta", J.Obj (List.rev t.meta));
      ( "pieces",
        J.List
          (List.rev_map
             (fun (id, p) ->
               J.Obj
                 [
                   ("id", J.Int id);
                   ( "done",
                     J.List
                       (List.map
                          (fun i -> J.Int i)
                          (List.sort_uniq compare p.done_tasks)) );
                   ( "incumbent",
                     match p.incumbent with
                     | None -> J.Null
                     | Some (gid, g) ->
                         J.Obj
                           [ ("gid", J.Int gid); ("graph", graph_to_json g) ] );
                 ])
             t.pieces) );
    ]

(* Atomic persist: whole document to a temp file, then rename, so a
   crash mid-write never leaves a torn checkpoint behind. *)
let save t =
  Mutex.protect t.lock (fun () ->
      let tmp = t.cpath ^ ".tmp" in
      match
        J.to_file tmp (to_json_locked t);
        Sys.rename tmp t.cpath
      with
      | () -> ()
      | exception e ->
          Obs.Budget.degrade "checkpoint.write";
          Obs.Log.warn (fun m ->
              m "checkpoint: save failed: %s" (Printexc.to_string e)))

let task_done t ~piece ~task =
  Mutex.protect t.lock (fun () ->
      let p = piece_locked t piece in
      if not (List.mem task p.done_tasks) then
        p.done_tasks <- task :: p.done_tasks);
  (* a completed task is the natural (coarse) checkpoint boundary *)
  save t

let set_incumbent t ~piece ~gid g =
  Mutex.protect t.lock (fun () ->
      (piece_locked t piece).incumbent <- Some (gid, g))

let completed t ~piece =
  Mutex.protect t.lock (fun () ->
      match List.assoc_opt piece t.pieces with
      | Some p -> List.sort_uniq compare p.done_tasks
      | None -> [])

let incumbents t =
  Mutex.protect t.lock (fun () ->
      List.filter_map
        (fun (id, p) -> Option.map (fun inc -> (id, inc)) p.incumbent)
        t.pieces)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let load path =
  let file =
    if Sys.file_exists path && Sys.is_directory path then
      Filename.concat path "checkpoint.json"
    else path
  in
  match open_in_bin file with
  | exception Sys_error msg -> Error msg
  | ic -> (
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match J.of_string s with
      | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
      | Ok j -> (
          match J.member "schema" j with
          | Some (J.Str s) when s = schema -> (
              try
                let t = create ~path:file in
                (match J.member "meta" j with
                | Some (J.Obj kvs) -> t.meta <- List.rev kvs
                | _ -> ());
                (match J.member "pieces" j with
                | Some (J.List ps) ->
                    List.iter
                      (fun pj ->
                        let p = piece_locked t (int_field "id" pj) in
                        p.done_tasks <- int_list_of_json (member_exn "done" pj);
                        p.incumbent <-
                          (match member_exn "incumbent" pj with
                          | J.Null -> None
                          | c ->
                              Some
                                ( int_field "gid" c,
                                  graph_of_json_exn (member_exn "graph" c) )))
                      ps
                | _ -> ());
                Ok t
              with Decode m -> Error (Printf.sprintf "%s: %s" file m))
          | _ -> Error (Printf.sprintf "%s: not a %s file" file schema)))
