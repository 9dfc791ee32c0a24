open Tensor
open Mugraph

exception Budget_exhausted

(* What the checks after the structural and rank ones said at birth. *)
type verdict = Duplicate | Refused of Tally.reason | Pruned | Alive

type 'a value = {
  id : int;
  shape : Shape.t;
  numel : int;
  nf : Absexpr.Nf.t;
  attrs : 'a;
}

let value shape nf attrs =
  { id = -1; shape; numel = Shape.numel shape; nf; attrs }

type ('o, 'a) entry = { op : 'o; ins : int list; value : 'a value }

(* One operator instantiation: made once, at the prefix where its newest
   input appeared, and shared by every descendant of that prefix. *)
type ('o, 'a) ext = {
  xop : 'o;
  xins : int list;
  rank : Canon.rank;
  born : int;  (* entries in the prefix that made it *)
  made : ('o, 'a) made;
}

and ('o, 'a) made =
  | Unfit of Tally.reason  (* structural reject, judged before rank *)
  | Out_of_order  (* canonical-rank reject where it was made *)
  | Unfit_ranked of Tally.reason  (* structural reject, judged after rank *)
  | Built of ('o, 'a) entry * verdict

(* The extensions made when entry [k] appeared, one array per cell of the
   generation order. *)
type ('o, 'a) bundle = {
  unary : ('o, 'a) ext array;  (* unary-like ops on [k] *)
  col : ('o, 'a) ext array array;  (* [col.(i)]: ops on [(i, k)], [i <= k] *)
  row : ('o, 'a) ext array array;  (* [row.(j)]: ops on [(k, j)], [j < k] *)
  extra : ('o, 'a) ext array;  (* the level's extra ops on [k] *)
}

type ('o, 'a, 's) state = {
  entries : ('o, 'a) entry array;
  table : ('o, 'a) bundle array;
      (* the bundles already made — the parent's table, empty at the
         root; [extend] makes one for each remaining entry *)
  ops : int;
  last_rank : Canon.rank option;
  own : 's;
}

type ('o, 'a, 's) level = {
  name : string;
  fault : string;
  max_ops : int;
  weight : int;
  reasons : Tally.reason list;
  rank_first : bool;
  menu : Op.prim list;
  prim : Op.prim -> 'o;
  rank : 'o -> int list -> Canon.rank;
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
}

let values () =
  { lock = Mutex.create (); by_nf = Absexpr.Nf.Tbl.create 1024; next = 0 }

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
      let w = { v with id = t.next } in
      t.next <- t.next + 1;
      Absexpr.Nf.Tbl.replace t.by_nf v.nf (w :: same);
      w

module Int_tbl = Hashtbl.Make (Int)

(* A cell's ops in generation order, each with its made value or the
   structural reason it has none. *)
type ('o, 'a) cell = ('o * ('a value, Tally.reason) result) array

type ('o, 'a) memo = {
  values : 'a values;
  front : Smtlite.Solver.front;
  scopes : ('o, 'a) cell Int_tbl.t Int_tbl.t;  (* cells by level scope *)
  mutable verdicts : Bytes.t;
      (* prune verdicts by value id: '\000' not asked yet, 'p' pruned,
         'k' kept *)
}

let memo values front =
  {
    values;
    front;
    scopes = Int_tbl.create 4;
    verdicts = Bytes.make 1024 '\000';
  }

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

let rank_ok st rank =
  match st.last_rank with
  | None -> true
  | Some r -> Canon.compare_rank r rank <= 0

(* Whether [v] is the value of an entry of [entries] from index [i] on. *)
let rec recomputes entries i v =
  i < Array.length entries
  && (entries.(i).value.id = v.id || recomputes entries (i + 1) v)

let spec_outputs spec =
  List.map2
    (fun e s -> (Absexpr.Nf.of_expr e, s))
    (Abstract.output_exprs spec)
    (Infer.output_shapes spec)

let search (lv : ('o, 'a, 's) level) (cfg : Config.t) ~stats ~memo ~budget
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
  (* Funnel counts, per-depth histograms and the level's own counters,
     registered once per search and counted per subtree in a
     domain-owned tally, each try [weight] times. *)
  let tally =
    Tally.level stats ~name:lv.name ~max_depth:lv.max_ops ~weight:lv.weight
      lv.reasons
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
  let pruned_fields (e : ('o, 'a) entry) =
    match journal with
    | Some _ -> Prune.journal_fields e.value.nf
    | None -> []
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
  let make_ext tl m st (op, made) ins =
    let rank = lv.rank op ins in
    let made =
      if lv.rank_first && not (rank_ok st rank) then Out_of_order
      else
        match made with
        | Error r -> if lv.rank_first then Unfit_ranked r else Unfit r
        | Ok _ when (not lv.rank_first) && not (rank_ok st rank) ->
            Out_of_order
        | Ok v -> Built ({ op; ins; value = v }, judge tl m st v)
    in
    { xop = op; xins = ins; rank; born = Array.length st.entries; made }
  in
  let pair_ordered = List.map lv.prim (pair_ops lv.menu ~ordered:true) in
  let pair_unordered = List.map lv.prim (pair_ops lv.menu ~ordered:false) in
  (* A cell's ops and made values, from the worker's memo or, the first
     time the worker meets its key, made and interned. *)
  let cell m cells kind st ins =
    let key = key kind ins st.entries in
    match Int_tbl.find_opt cells key with
    | Some c -> c
    | None ->
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
    let exts kind ins =
      Array.map
        (fun made -> make_ext tl m st made ins)
        (cell m cells kind st ins)
    in
    let unary = exts Unary [ k ] in
    let col = Array.init (k + 1) (fun i -> exts Col [ i; k ]) in
    let row = Array.init k (fun j -> exts Row [ k; j ]) in
    let extra = exts Extra [ k ] in
    { unary; col; row; extra }
  in
  (* One prefix: its table is its parent's plus a bundle for each newer
     entry. Every try in the table is counted (the funnel's [expanded])
     and either fails one check — counted under exactly one rejection
     reason — or is kept; only then are the kept children searched, in
     the same order. *)
  let rec extend tl m cells st =
    budget_check tl;
    lv.complete tl st;
    if st.ops < lv.max_ops then begin
      let depth = st.ops in
      let count = Array.length st.entries in
      let known = Array.length st.table in
      let table =
        Array.init count (fun k ->
            if k < known then st.table.(k) else make_bundle tl m cells st k)
      in
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
        Tally.expand tl ~depth;
        let cand = jexpand ~depth x in
        match x.made with
        | Unfit r -> reject cand r (unfit_fields st x r)
        | Out_of_order -> reject cand Tally.Canonical []
        | _ when not (rank_ok st x.rank) -> reject cand Tally.Canonical []
        | Unfit_ranked r -> reject cand r (unfit_fields st x r)
        | Built (_, Duplicate) -> reject cand Tally.Duplicate []
        | Built (e, _) when recomputes st.entries x.born e.value ->
            reject cand Tally.Duplicate []
        | Built (e, Refused r) -> reject cand r (admit_fields st e.value)
        | Built (e, verdict) -> (
            match lv.admit st e.value with
            | Some r -> reject cand r (admit_fields st e.value)
            | None -> (
                match verdict with
                | Pruned -> reject cand Tally.Pruned (pruned_fields e)
                | _ -> (
                    match lv.child st e with
                    | Error r -> reject cand r []
                    | Ok own ->
                        jaccept ~depth cand e;
                        kept :=
                          {
                            entries = Array.append st.entries [| e |];
                            table;
                            ops = st.ops + 1;
                            last_rank = Some x.rank;
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
             pool; recurse inline past the cutoff. *)
          if
            st'.ops > cfg.Config.steal_depth_cutoff
            || not (spawn (fun () -> subtree st'))
          then extend tl m cells st')
        (List.rev !kept)
    end
  (* A subtree on the worker that runs it: that worker's memo and front,
     and a tally that flushes under this task even when the budget cuts
     the DFS short. *)
  and subtree st =
    let m = memo () in
    let cells = scope_cells m lv.scope in
    Tally.run tally m.front (fun tl -> extend tl m cells st)
  in
  let m = memo () in
  let entries =
    Mutex.protect m.values.lock (fun () ->
        Array.of_list
          (List.map
             (fun (e : ('o, 'a) entry) ->
               { e with value = intern_locked m.values e.value })
             inputs))
  in
  subtree { entries; table = [||]; ops = 0; last_rank = None; own }
