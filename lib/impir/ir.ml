type iexp =
  | Iconst of int
  | Ivar of string
  | Iadd of iexp * iexp
  | Imul of iexp * iexp
  | Idiv of iexp * iexp
  | Imod of iexp * iexp

let iconst n = Iconst n
let ivar v = Ivar v

let iadd a b =
  match (a, b) with
  | Iconst 0, x | x, Iconst 0 -> x
  | Iconst a, Iconst b -> Iconst (a + b)
  | _ -> Iadd (a, b)

let imul a b =
  match (a, b) with
  | Iconst 0, _ | _, Iconst 0 -> Iconst 0
  | Iconst 1, x | x, Iconst 1 -> x
  | Iconst a, Iconst b -> Iconst (a * b)
  | _ -> Imul (a, b)

let idiv a b =
  match (a, b) with
  | x, Iconst 1 -> x
  | Iconst 0, _ -> Iconst 0
  | Iconst a, Iconst b when b <> 0 -> Iconst (a / b)
  | _ -> Idiv (a, b)

let imod a b =
  match (a, b) with
  | _, Iconst 1 -> Iconst 0
  | Iconst 0, _ -> Iconst 0
  | Iconst a, Iconst b when b <> 0 -> Iconst (a mod b)
  | _ -> Imod (a, b)

let rec eval_iexp env = function
  | Iconst n -> n
  | Ivar v -> env v
  | Iadd (a, b) -> eval_iexp env a + eval_iexp env b
  | Imul (a, b) -> eval_iexp env a * eval_iexp env b
  | Idiv (a, b) -> eval_iexp env a / eval_iexp env b
  | Imod (a, b) -> eval_iexp env a mod eval_iexp env b

let rec iexp_to_string = function
  | Iconst n -> string_of_int n
  | Ivar v -> v
  | Iadd (a, b) ->
      Printf.sprintf "(%s + %s)" (iexp_to_string a) (iexp_to_string b)
  | Imul (a, b) ->
      Printf.sprintf "(%s * %s)" (iexp_to_string a) (iexp_to_string b)
  | Idiv (a, b) ->
      Printf.sprintf "(%s / %s)" (iexp_to_string a) (iexp_to_string b)
  | Imod (a, b) ->
      Printf.sprintf "(%s %% %s)" (iexp_to_string a) (iexp_to_string b)

let iexp_vars e =
  let rec go acc = function
    | Iconst _ -> acc
    | Ivar v -> v :: acc
    | Iadd (a, b) | Imul (a, b) | Idiv (a, b) | Imod (a, b) -> go (go acc a) b
  in
  List.sort_uniq String.compare (go [] e)

type space = Global | Shared | Local

type buf = {
  bname : string;
  space : space;
  shape : int array;
  layout : Tensor.Layout.t;
}

let numel b = Array.fold_left ( * ) 1 b.shape
let strides b = Tensor.Layout.strides b.layout b.shape

let index b coords =
  let st = strides b in
  if Array.length coords <> Array.length st then
    invalid_arg
      (Printf.sprintf "Ir.index: buffer %s has rank %d, got %d coords" b.bname
         (Array.length st) (Array.length coords));
  let acc = ref (Iconst 0) in
  Array.iteri (fun d c -> acc := iadd !acc (imul c (iconst st.(d)))) coords;
  !acc

type vexp =
  | Const of float
  | Load of buf * iexp
  | Temp of string
  | Bin of Mugraph.Op.binary * vexp * vexp
  | Un of Mugraph.Op.unary * vexp

type loop_kind = Grid of int | Forloop of int | Serial | Reduce

type stmt =
  | For of { v : string; n : int; kind : loop_kind; body : stmt list }
  | Decl of { v : string; init : vexp }
  | Assign of { v : string; e : vexp }
  | Store of { dst : buf; idx : iexp; e : vexp }
  | Store_add of { dst : buf; idx : iexp; e : vexp }
  | Barrier
  | Comment of string

(* ------------------------------------------------------------------ *)
(* Loop collapse                                                       *)
(* ------------------------------------------------------------------ *)

let rec map_vexp f = function
  | Load (b, i) -> Load (b, f i)
  | Bin (op, a, b) -> Bin (op, map_vexp f a, map_vexp f b)
  | Un (op, a) -> Un (op, map_vexp f a)
  | (Const _ | Temp _) as e -> e

(* Rewrite every load and store index under a statement with [f]. *)
let rec map_indices f = function
  | For l -> For { l with body = List.map (map_indices f) l.body }
  | Decl d -> Decl { d with init = map_vexp f d.init }
  | Assign a -> Assign { a with e = map_vexp f a.e }
  | Store s -> Store { s with idx = f s.idx; e = map_vexp f s.e }
  | Store_add s -> Store_add { s with idx = f s.idx; e = map_vexp f s.e }
  | (Barrier | Comment _) as s -> s

(* An index as a linear form [c + sum k_i * t_i] over atoms [t_i], in
   first-occurrence order: sums and constant multiples are opened, every
   other node is an atom. *)
type lin = { c : int; ts : (iexp * int) list }

let rec terms = function
  | Iconst n -> { c = n; ts = [] }
  | Iadd (a, b) ->
      let a = terms a and b = terms b in
      let ts =
        List.fold_left
          (fun acc (t, k) ->
            if List.mem_assoc t acc then
              List.map (fun (t', k') -> (t', if t' = t then k' + k else k')) acc
            else acc @ [ (t, k) ])
          a.ts b.ts
      in
      { c = a.c + b.c; ts }
  | Imul (a, Iconst k) | Imul (Iconst k, a) ->
      let l = terms a in
      { c = l.c * k; ts = List.map (fun (t, k') -> (t, k' * k)) l.ts }
  | e -> { c = 0; ts = [ (e, 1) ] }

let iexp_of_lin l =
  let sum acc (t, k) = iadd acc (imul t (iconst k)) in
  iadd (List.fold_left sum (iconst 0) l.ts) (iconst l.c)

(* Rewrite an index over [o] in [0, no) and [i] in [0, ni) into one over
   [o' = o*ni + i]: [o*(k*ni) + i*k + r] becomes [o'*k + r]. Raises
   [Exit] when the index reads [o] or [i] in any other way. *)
let fuse_index ~o ~i ~ni e =
  let uses t = List.exists (fun v -> v = o || v = i) (iexp_vars t) in
  if not (uses e) then e
  else
    let l = terms e in
    let direct t = t = Ivar o || t = Ivar i in
    match (List.assoc_opt (Ivar o) l.ts, List.assoc_opt (Ivar i) l.ts) with
    | Some ko, Some ki
      when ko = ki * ni
           && List.for_all (fun (t, _) -> direct t || not (uses t)) l.ts ->
        iexp_of_lin
          {
            l with
            ts =
              List.filter_map
                (fun (t, k) ->
                  if t = Ivar i then None
                  else if t = Ivar o then Some (t, ki)
                  else Some (t, k))
                l.ts;
          }
    | _ -> raise Exit

(* Bottom-up: a [Serial] loop whose whole body is one [Serial] loop
   becomes one loop over the product of the extents, named after the
   outer variable, when every index in the inner body fuses. The fused
   loop visits the same (outer, inner) points in the same order. *)
let rec collapse_stmt = function
  | For ({ kind = Serial; _ } as l) -> (
      let body = List.map collapse_stmt l.body in
      match body with
      | [ For ({ kind = Serial; _ } as inner) ] -> (
          let fuse = fuse_index ~o:l.v ~i:inner.v ~ni:inner.n in
          try
            For
              {
                l with
                n = l.n * inner.n;
                body = List.map (map_indices fuse) inner.body;
              }
          with Exit -> For { l with body })
      | _ -> For { l with body })
  | For l -> For { l with body = List.map collapse_stmt l.body }
  | s -> s

type kernel = {
  kname : string;
  params : buf list;
  n_inputs : int;
  shared : (buf * int) list;
  locals : buf list;
  grid : int array;
  forloop : int array;
  smem_bytes : int;
  planner_optimal : bool;
  body : stmt list;
}

type program = {
  pname : string;
  inputs : buf list;
  input_names : string list;
  outputs : buf list;
  temps : buf list;
  kernels : kernel list;
  calls : (string * buf list) list;
}

let collapse p =
  let kernel k = { k with body = List.map collapse_stmt k.body } in
  { p with kernels = List.map kernel p.kernels }

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

exception Ill_formed of string

let illf fmt = Printf.ksprintf (fun s -> raise (Ill_formed s)) fmt

module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* Scope during a kernel walk: buffers reachable by name, bound loop
   variables, declared scalar temporaries. *)
type scope = {
  bufs : buf SMap.t;
  ivars : SSet.t;
  mutable temps : SSet.t;
}

let check_iexp k sc e =
  List.iter
    (fun v ->
      if not (SSet.mem v sc.ivars) then
        illf "%s: unbound index variable %s" k v)
    (iexp_vars e)

let check_buf_ref k sc b =
  match SMap.find_opt b.bname sc.bufs with
  | None -> illf "%s: buffer %s not in scope" k b.bname
  | Some b' ->
      if b'.shape <> b.shape || b'.space <> b.space then
        illf "%s: buffer %s referenced with mismatched shape/space" k b.bname

let rec check_vexp k sc = function
  | Const _ -> ()
  | Temp v ->
      if not (SSet.mem v sc.temps) then illf "%s: undeclared temp %s" k v
  | Load (b, i) ->
      check_buf_ref k sc b;
      check_iexp k sc i
  | Bin (_, a, b) ->
      check_vexp k sc a;
      check_vexp k sc b
  | Un (_, a) -> check_vexp k sc a

let check_kernel ker =
  let k = ker.kname in
  if ker.n_inputs < 0 || ker.n_inputs > List.length ker.params then
    illf "%s: n_inputs out of range" k;
  List.iter
    (fun b ->
      if b.space <> Global then illf "%s: param %s not Global" k b.bname)
    ker.params;
  List.iter
    (fun (b, off) ->
      if b.space <> Shared then illf "%s: shared buf %s not Shared" k b.bname;
      if off < 0 then illf "%s: negative smem offset for %s" k b.bname)
    ker.shared;
  List.iter
    (fun b ->
      if b.space <> Local then illf "%s: local buf %s not Local" k b.bname)
    ker.locals;
  let bufs =
    List.fold_left
      (fun m b ->
        if SMap.mem b.bname m then illf "%s: duplicate buffer name %s" k b.bname;
        SMap.add b.bname b m)
      SMap.empty
      (ker.params @ List.map fst ker.shared @ ker.locals)
  in
  let sc = { bufs; ivars = SSet.empty; temps = SSet.empty } in
  let outs =
    let rec drop n = function
      | l when n = 0 -> l
      | _ :: tl -> drop (n - 1) tl
      | [] -> []
    in
    drop ker.n_inputs ker.params
    |> List.fold_left (fun s b -> SSet.add b.bname s) SSet.empty
  in
  let check_store sc dst idx e =
    check_buf_ref k sc dst;
    check_iexp k sc idx;
    check_vexp k sc e;
    if dst.space = Global && not (SSet.mem dst.bname outs) then
      illf "%s: store into read-only param %s" k dst.bname
  in
  let rec walk sc = function
    | For { v; n; kind; body } ->
        if n <= 0 then illf "%s: loop %s has non-positive bound %d" k v n;
        if SSet.mem v sc.ivars then illf "%s: loop variable %s shadowed" k v;
        (match kind with
        | Grid a ->
            if a < 0 || a >= Array.length ker.grid then
              illf "%s: grid loop axis %d outside grid rank" k a
            else if ker.grid.(a) <> n then
              illf "%s: grid loop %s bound %d disagrees with grid dim %d" k v n
                ker.grid.(a)
        | Forloop l ->
            if l < 0 || l >= Array.length ker.forloop then
              illf "%s: forloop axis %d outside forloop rank" k l
            else if ker.forloop.(l) <> n then
              illf "%s: forloop %s bound %d disagrees with forloop dim %d" k v n
                ker.forloop.(l)
        | Serial | Reduce -> ());
        let sc' =
          { bufs = sc.bufs; ivars = SSet.add v sc.ivars; temps = sc.temps }
        in
        List.iter (walk sc') body;
        (* scalar temps declared inside the loop do not escape it *)
        ()
    | Decl { v; init } ->
        check_vexp k sc init;
        sc.temps <- SSet.add v sc.temps
    | Assign { v; e } ->
        if not (SSet.mem v sc.temps) then illf "%s: assign to undeclared %s" k v;
        check_vexp k sc e
    | Store { dst; idx; e } | Store_add { dst; idx; e } ->
        check_store sc dst idx e
    | Barrier | Comment _ -> ()
  in
  List.iter (walk sc) ker.body

let check_program p =
  try
    let knames =
      List.fold_left
        (fun m ker ->
          if SMap.mem ker.kname m then illf "duplicate kernel %s" ker.kname;
          check_kernel ker;
          SMap.add ker.kname ker m)
        SMap.empty p.kernels
    in
    let globals =
      List.fold_left
        (fun m b ->
          if b.space <> Global then illf "global buf %s not Global" b.bname;
          SMap.add b.bname b m)
        SMap.empty (p.inputs @ p.temps)
    in
    List.iter
      (fun ob ->
        if not (SMap.mem ob.bname globals) then
          illf "output %s is not a program buffer" ob.bname)
      p.outputs;
    List.iter
      (fun (kname, args) ->
        match SMap.find_opt kname knames with
        | None -> illf "call to unknown kernel %s" kname
        | Some ker ->
            if List.length args <> List.length ker.params then
              illf "call %s: arity %d, expected %d" kname (List.length args)
                (List.length ker.params);
            List.iter2
              (fun a f ->
                (match SMap.find_opt a.bname globals with
                | None -> illf "call %s: arg %s not a program buffer" kname a.bname
                | Some g ->
                    if g.shape <> a.shape then
                      illf "call %s: arg %s shape drifted" kname a.bname);
                if numel a <> numel f then
                  illf "call %s: arg %s has %d elements, formal %s wants %d"
                    kname a.bname (numel a) f.bname (numel f))
              args ker.params)
      p.calls;
    Ok ()
  with Ill_formed m -> Error m
