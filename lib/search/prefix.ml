open Tensor
open Mugraph

exception Budget_exhausted

(* What a birth decided beyond the cell's structural verdict: a
   canonical-rank reject there, or what the checks after rank said. *)
type verdict =
  | Out_of_order
  | Duplicate
  | Refused of Tally.reason
  | Pruned
  | Alive

type 'a value = {
  id : int;
  shape : Shape.t;
  numel : int;
  nf : Absexpr.Nf.t;
  attrs : 'a;
  goals : int;
}

let value shape nf attrs =
  { id = -1; shape; numel = Shape.numel shape; nf; attrs; goals = 0 }

type ('o, 'a) entry = { op : 'o; ins : int list; value : 'a value }

(* One operator instantiation: made once, at the prefix where its newest
   input appeared, and shared by every descendant of that prefix. One
   flat record per birth: the made value is the memo cell's own, and
   the entry is built only for a try that reaches [child]. *)
type ('o, 'a) ext = {
  xop : 'o;
  xins : int list;
  rank : int;  (* [xins] packed, see [pack_rank] *)
  born : int;  (* entries in the prefix that made it *)
  made : ('a value, Tally.reason) result;
      (* the value, or the structural reject: judged before rank at a
         level without [rank_first], after it at one with *)
  verdict : verdict;  (* [Alive] for a structural reject, unread *)
}

(* The extensions made when entry [k] appeared, one array per cell of the
   generation order. *)
type ('o, 'a) bundle = {
  unary : ('o, 'a) ext array;  (* unary-like ops on [k] *)
  col : ('o, 'a) ext array array;  (* [col.(i)]: ops on [(i, k)], [i <= k] *)
  row : ('o, 'a) ext array array;  (* [row.(j)]: ops on [(k, j)], [j < k] *)
  extra : ('o, 'a) ext array;  (* the level's extra ops on [k] *)
  size : int;  (* the extensions in all four *)
}

type ('o, 'a, 's) state = {
  entries : ('o, 'a) entry array;
  table : ('o, 'a) bundle array;
      (* the bundles already made — the parent's table, empty at the
         root; [extend] makes one for each remaining entry *)
  ops : int;
  last : ('o, 'a) ext option;  (* the operator that made the newest entry *)
  cover : int;  (* the OR of the operator entries' goal masks *)
  own : 's;
}

type ('o, 'a, 's) level = {
  name : string;
  fault : string;
  max_ops : int;
  weight : int;
  rank_first : bool;
  menu : Op.prim list;
  prim : Op.prim -> 'o;
  op_name : 'o -> string;
  scope : int;
  extra : 'a value -> 'o list;
  make : 'o -> 'a value list -> ('a value, Tally.reason) result;
  admit : ('o, 'a, 's) state -> 'a value -> Tally.reason option;
  admit_fields :
    ('o, 'a, 's) state -> 'a value -> (string * Obs.Jsonw.t) list;
  child : ('o, 'a, 's) state -> ('o, 'a) entry -> ('s, Tally.reason) result;
  complete : Tally.t -> ('o, 'a, 's) state -> unit;
}

(* The value table: one canonical record per (normal form, shape,
   attrs), numbered in order of first sight. A search's workers share it
   and take its lock only to intern what a memo miss made. Ids stay far
   below 2^30, the room a memo key gives each: a table that size would
   need tens of gigabytes. *)
type 'a values = {
  lock : Mutex.t;
  by_nf : 'a value list Absexpr.Nf.Tbl.t;
  mutable next : int;
  outputs : Absexpr.Nf.t array;  (* the spec outputs' normal forms *)
  all : int;  (* the mask with every output's bit *)
}

(* A goal mask has one bit per output and stays a non-negative int. *)
let max_outputs = Sys.int_size - 1

let values outputs =
  if List.length outputs > max_outputs then
    invalid_arg
      (Printf.sprintf "Prefix.values: %d outputs exceed %d"
         (List.length outputs) max_outputs);
  {
    lock = Mutex.create ();
    by_nf = Absexpr.Nf.Tbl.create 1024;
    next = 0;
    outputs = Array.of_list outputs;
    all = (1 lsl List.length outputs) - 1;
  }

let intern_locked t v =
  let same =
    Option.value ~default:[] (Absexpr.Nf.Tbl.find_opt t.by_nf v.nf)
  in
  match
    List.find_opt
      (fun w -> w.attrs == v.attrs && Shape.equal w.shape v.shape)
      same
  with
  | Some w -> w
  | None ->
      let goals = ref 0 in
      Array.iteri
        (fun j o ->
          if Absexpr.Nf.equal v.nf o then goals := !goals lor (1 lsl j))
        t.outputs;
      let w = { v with id = t.next; goals = !goals } in
      t.next <- t.next + 1;
      Absexpr.Nf.Tbl.replace t.by_nf v.nf (w :: same);
      w

let interned t =
  Mutex.protect t.lock (fun () ->
      Absexpr.Nf.Tbl.fold (fun _ vs acc -> vs @ acc) t.by_nf [])

(* Memo keys are value ids packed in one int, so [Hashtbl.hash] is a C
   call for what one multiply does: take the product's middle bits,
   which every key bit reaches. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 32
end)

(* A cell's ops in generation order, each with its made value or the
   structural reason it has none. *)
type ('o, 'a) cell = ('o * ('a value, Tally.reason) result) array

type ('o, 'a) memo = {
  values : 'a values;
  scopes : ('o, 'a) cell Int_tbl.t Int_tbl.t;  (* cells by level scope *)
  mutable verdicts : Bytes.t;
      (* prune verdicts by value id: '\000' not asked yet, 'p' pruned,
         'k' kept *)
  counts : Tally.acc;  (* the worker's funnel buffer for the level *)
}

let memo values tally front =
  {
    values;
    scopes = Int_tbl.create 4;
    verdicts = Bytes.make 1024 '\000';
    counts = Tally.acc tally front;
  }

let flush m = Tally.flush m.counts

let scope_cells m scope =
  match Int_tbl.find_opt m.scopes scope with
  | Some cells -> cells
  | None ->
      let cells = Int_tbl.create 4096 in
      Int_tbl.add m.scopes scope cells;
      cells

(* The cells of the generation order. A cell's memo key holds its kind in
   the low two bits, then its inputs' value ids, 30 bits each. *)
type kind = Unary | Col | Row | Extra

let key kind ins (entries : (_, _) entry array) =
  let k = match kind with Unary -> 0 | Col -> 1 | Row -> 2 | Extra -> 3 in
  let id i = entries.(i).value.id in
  match ins with
  | [ a ] -> k lor (id a lsl 2)
  | [ a; b ] -> k lor (id a lsl 2) lor (id b lsl 32)
  | _ -> invalid_arg "Prefix.key"

(* The menu's unary-like ops on a tensor of this shape ([Sum] becomes a
   full reduction along each dimension longer than 1). *)
let unary_like menu shape =
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

(* The pair ops tried on inputs [(i, j)]: commutative ops only when
   [i <= j], [Matmul] last. *)
let pair_ops menu ~ordered =
  List.filter
    (fun p ->
      match p with
      | Op.Binary (Op.Add | Op.Mul) -> ordered
      | Op.Binary Op.Div -> true
      | _ -> false)
    menu
  @ if List.mem Op.Matmul menu then [ Op.Matmul ] else []

let prim_value p vs attrs =
  let shapes = List.map (fun v -> v.shape) vs in
  match Op.infer_shape_opt p shapes with
  | None -> Error Tally.Shape
  | Some shape ->
      Ok
        (value shape
           (Abstract.prim_nf p ~in_shapes:shapes (List.map (fun v -> v.nf) vs))
           attrs)

(* A rank is its input list packed in one int, each index plus one in
   [rank_bits] bits, the first input highest; the operator is compared
   only when the lists are equal. *)
let rank_bits = 6
let rank_limit = (1 lsl rank_bits) - 1

let pack_rank ins =
  let field i =
    if i < 0 || i >= rank_limit then invalid_arg "Prefix.pack_rank" else i + 1
  in
  match ins with
  | [ a ] -> field a lsl rank_bits
  | [ a; b ] -> (field a lsl rank_bits) lor field b
  | _ -> invalid_arg "Prefix.pack_rank"

let compare_rank r op r' op' =
  if r <> r' then Int.compare r r' else Stdlib.compare op op'

let rank_ok st rank op =
  match st.last with
  | None -> true
  | Some l -> compare_rank l.rank l.xop rank op <= 0

(* Whether [v] is the value of an entry of [entries] from index [i] on. *)
let rec recomputes entries i v =
  i < Array.length entries
  && (entries.(i).value.id = v.id || recomputes entries (i + 1) v)

let spec_goals spec = List.map Absexpr.Nf.of_expr (Abstract.output_exprs spec)

let search (lv : ('o, 'a, 's) level) (cfg : Config.t) ~memo ~budget
    ?(spawn = fun _ -> false) inputs own =
  (* Flight recorder, resolved once per search: every try gets a
     candidate id and an expand event, every rejection names its reason,
     and each event of a search standing for k > 1 roots says so. One
     atomic load per try when journaling is off, and no Jsonw values are
     built on the [None] path. *)
  let journal = Obs.Journal.active () in
  let jroots =
    if lv.weight > 1 then [ ("roots", Obs.Jsonw.Int lv.weight) ] else []
  in
  (* level and depth first, then the event's own fields, then roots *)
  let jemit j ~cand typ ~depth fields =
    Obs.Journal.emit j ~cand ~typ
      ((("level", Obs.Jsonw.Str lv.name) :: ("depth", Obs.Jsonw.Int depth)
       :: fields)
      @ jroots)
  in
  let jexpand ~depth (x : ('o, 'a) ext) =
    match journal with
    | Some j ->
        let cand = Obs.Journal.fresh_id j in
        jemit j ~cand "cand.expand" ~depth
          [
            ("op", Obs.Jsonw.Str (lv.op_name x.xop));
            ( "ins",
              Obs.Jsonw.List (List.map (fun i -> Obs.Jsonw.Int i) x.xins) );
          ];
        cand
    | None -> -1
  in
  let jaccept ~depth cand (e : ('o, 'a) entry) =
    match journal with
    | Some j ->
        jemit j ~cand "cand.accept" ~depth
          [
            ("shape", Obs.Jsonw.Str (Shape.to_string e.value.shape));
            ("expr", Obs.Jsonw.Str (Absexpr.Nf.to_string e.value.nf));
          ]
    | None -> ()
  in
  let budget_check tl =
    Obs.Fault.trip lv.fault;
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
  (* Journal payloads of a structural reject (a shape reject names its
     input shapes), an [admit] reject and a pruned one; [] when no
     journal is live. *)
  let unfit_fields st (x : ('o, 'a) ext) reason =
    match journal with
    | Some _ when reason = Tally.Shape ->
        [
          ( "in_shapes",
            Obs.Jsonw.List
              (List.map
                 (fun i ->
                   Obs.Jsonw.Str (Shape.to_string st.entries.(i).value.shape))
                 x.xins) );
        ]
    | _ -> []
  in
  let admit_fields st v =
    match journal with Some _ -> lv.admit_fields st v | None -> []
  in
  let pruned_fields v =
    match journal with Some _ -> Prune.journal_fields v.nf | None -> []
  in
  (* The prune verdict of a value, asked through the worker's front the
     first time the worker meets the value. *)
  let pruned tl m v =
    let n = Bytes.length m.verdicts in
    if v.id >= n then begin
      let grown = Bytes.make (2 * max (v.id + 1) n) '\000' in
      Bytes.blit m.verdicts 0 grown 0 n;
      m.verdicts <- grown
    end;
    match Bytes.get m.verdicts v.id with
    | 'p' -> true
    | 'k' -> false
    | _ ->
        let p =
          Obs.Profile.timed (Tally.timer tl) (fun () ->
              Prune.check cfg ~front:(Tally.front tl) v.nf)
        in
        Bytes.set m.verdicts v.id (if p then 'p' else 'k');
        p
  in
  (* The checks later entries cannot overturn, run once at birth. *)
  let judge tl m st v =
    if recomputes st.entries 0 v then Duplicate
    else
      match lv.admit st v with
      | Some r -> Refused r
      | None -> if pruned tl m v then Pruned else Alive
  in
  let make_ext tl m st rank (op, made) ins =
    let verdict =
      if lv.rank_first && not (rank_ok st rank op) then Out_of_order
      else
        match made with
        | Error _ -> Alive
        | Ok _ when (not lv.rank_first) && not (rank_ok st rank op) ->
            Out_of_order
        | Ok v -> judge tl m st v
    in
    {
      xop = op;
      xins = ins;
      rank;
      born = Array.length st.entries;
      made;
      verdict;
    }
  in
  let pair_ordered = List.map lv.prim (pair_ops lv.menu ~ordered:true) in
  let pair_unordered = List.map lv.prim (pair_ops lv.menu ~ordered:false) in
  (* A cell's ops and made values, from the worker's memo or, the first
     time the worker meets its key, made and interned. *)
  let cell m cells kind st ins =
    let key = key kind ins st.entries in
    match Int_tbl.find cells key with
    | c -> c
    | exception Not_found ->
        let vs = List.map (fun i -> st.entries.(i).value) ins in
        let ops =
          match kind with
          | Unary -> List.map lv.prim (unary_like lv.menu (List.hd vs).shape)
          | Col -> pair_ordered
          | Row -> pair_unordered
          | Extra -> lv.extra (List.hd vs)
        in
        let made = List.map (fun op -> (op, lv.make op vs)) ops in
        let c =
          Mutex.protect m.values.lock (fun () ->
              Array.of_list
                (List.map
                   (fun (op, r) -> (op, Result.map (intern_locked m.values) r))
                   made))
        in
        Int_tbl.add cells key c;
        c
  in
  (* The bundle of entry [k], made at prefix [st], cell by cell in
     generation order. *)
  let make_bundle tl m cells st k =
    let size = ref 0 in
    let exts kind ins =
      let rank = pack_rank ins in
      let c = cell m cells kind st ins in
      size := !size + Array.length c;
      Array.map (fun made -> make_ext tl m st rank made ins) c
    in
    let unary = exts Unary [ k ] in
    let col = Array.init (k + 1) (fun i -> exts Col [ i; k ]) in
    let row = Array.init k (fun j -> exts Row [ k; j ]) in
    let extra = exts Extra [ k ] in
    { unary; col; row; extra; size = !size }
  in
  (* One prefix: its table is its parent's plus a bundle for each newer
     entry. Every try in the table is counted (the funnel's [expanded],
     in one batch before the first is judged) and either fails one check
     — counted under exactly one rejection reason — or is kept; only
     then are the kept children searched, in the same order. *)
  let rec extend tl m cells st =
    budget_check tl;
    if st.cover = m.values.all then lv.complete tl st;
    if st.ops < lv.max_ops then begin
      let depth = st.ops in
      let count = Array.length st.entries in
      let known = Array.length st.table in
      let table =
        Array.init count (fun k ->
            if k < known then st.table.(k) else make_bundle tl m cells st k)
      in
      Tally.expand tl ~depth
        (Array.fold_left (fun n b -> n + b.size) 0 table);
      let reject cand reason extra =
        Tally.reject tl reason ~depth;
        match journal with
        | Some j ->
            jemit j ~cand "cand.reject" ~depth
              (("reason", Obs.Jsonw.Str (Tally.reason_name reason)) :: extra)
        | None -> ()
      in
      let kept = ref [] in
      let visit x =
        let cand = jexpand ~depth x in
        match (x.made, x.verdict) with
        | _, Out_of_order -> reject cand Tally.Canonical []
        | Error r, _ when not lv.rank_first ->
            reject cand r (unfit_fields st x r)
        | _ when not (rank_ok st x.rank x.xop) ->
            reject cand Tally.Canonical []
        | Error r, _ -> reject cand r (unfit_fields st x r)
        | Ok _, Duplicate -> reject cand Tally.Duplicate []
        | Ok v, _ when recomputes st.entries x.born v ->
            reject cand Tally.Duplicate []
        | Ok v, Refused r -> reject cand r (admit_fields st v)
        | Ok v, verdict -> (
            match lv.admit st v with
            | Some r -> reject cand r (admit_fields st v)
            | None -> (
                match verdict with
                | Pruned -> reject cand Tally.Pruned (pruned_fields v)
                | _ -> (
                    let e = { op = x.xop; ins = x.xins; value = v } in
                    match lv.child st e with
                    | Error r -> reject cand r []
                    | Ok own ->
                        jaccept ~depth cand e;
                        kept :=
                          {
                            entries = Array.append st.entries [| e |];
                            table;
                            ops = st.ops + 1;
                            last = Some x;
                            cover = st.cover lor v.goals;
                            own;
                          }
                          :: !kept)))
      in
      for i = 0 to count - 1 do
        let b = table.(i) in
        Array.iter visit b.unary;
        for j = 0 to count - 1 do
          Array.iter visit (if i <= j then table.(j).col.(i) else b.row.(j))
        done;
        Array.iter visit b.extra
      done;
      List.iter
        (fun st' ->
          (* Shallow children root large subtrees — publish those to the
             pool; recurse inline past the cutoff, and below it when
             fewer than two operator levels remain: such a child's
             subtree is one table of leaves, cheaper to search here than
             to hand over. *)
          if
            st'.ops > cfg.Config.steal_depth_cutoff
            || lv.max_ops - st'.ops < 2
            || not (spawn (fun () -> subtree st'))
          then extend tl m cells st')
        (List.rev !kept)
    end
  (* A subtree on the worker that runs it: that worker's memo, front
     and funnel buffer, and a prune-check timer that flushes under this
     task even when the budget cuts the DFS short. *)
  and subtree st =
    let m = memo () in
    Tally.run m.counts ~weight:lv.weight (fun tl ->
        extend tl m (scope_cells m lv.scope) st)
  in
  if List.length inputs + lv.max_ops > rank_limit then
    invalid_arg
      (Printf.sprintf "Prefix.search: %d inputs and %d ops exceed %d entries"
         (List.length inputs) lv.max_ops rank_limit);
  let m = memo () in
  let entries =
    Mutex.protect m.values.lock (fun () ->
        Array.of_list
          (List.map
             (fun (e : ('o, 'a) entry) ->
               { e with value = intern_locked m.values e.value })
             inputs))
  in
  subtree { entries; table = [||]; ops = 0; last = None; cover = 0; own }
