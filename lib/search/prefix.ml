open Tensor
open Mugraph

exception Budget_exhausted

type 'a value = {
  id : int;
  shape : Shape.t;
  numel : int;
  nf : Absexpr.Nf.t;
  attrs : 'a;
  goals : int;
  reach : int;
}

let value shape nf attrs =
  { id = -1; shape; numel = Shape.numel shape; nf; attrs; goals = 0; reach = 0 }

type ('o, 'a) entry = { op : 'o; ins : int list; value : 'a value }

(* A cell's ops in generation order, each with its made value or the
   structural reason it has none: what the worker's memo keeps per key. *)
type ('o, 'a) cell = ('o * ('a value, Tally.reason) result) array

(* A try's birth verdict, one byte: what the checks after rank said, a
   structural reject that still waits on rank (the kernel level's), or
   dead — a reject no later prefix can overturn, counted in bulk. *)
let v_alive = 0
let v_duplicate = 1
let v_pruned = 2
let v_unfit = 3
let v_dead = 4
let v_refused r = 8 + Tally.index r

(* The tries made when entry [k] appeared, at the prefix where it is the
   newest (or at the root, for an input). No record per try: a try is a
   slot and an index into the slot's memo cell, and its inputs and
   packed rank follow from the slot. The slots, in generation order: 0,
   the unary-like ops on [k]; [1 + i], the pair ops on [(i, k)] for
   [i <= k]; [k + 2 + j], the pair ops on [(k, j)] for [j < k];
   [2k + 2], the level's extra ops on [k]. The last three fields sum
   over this bundle and every earlier one of the table, which every
   prefix holding this bundle shares, since tables only grow. *)
type ('o, 'a) bundle = {
  cells : ('o, 'a) cell array;  (* by slot, the worker memo's own cells *)
  born : int;  (* entries in the prefix that made it *)
  verdicts : Bytes.t;  (* one birth verdict per try, slot after slot *)
  offs : int array;  (* slot [s]'s first try in [verdicts] *)
  live : int array;  (* per slot: the tries not dead at birth *)
  tries : int;
  lives : int;  (* tries not dead at birth *)
  dead : int array;  (* tries dead at birth, by reason index *)
}

type ('o, 'a, 's) state = {
  entries : ('o, 'a) entry array;
  table : ('o, 'a) bundle array;
      (* the bundles already made — the parent's table, empty at the
         root; [extend] makes one for each remaining entry *)
  ops : int;
  rank : int;  (* the newest entry's operator's packed rank; 0 at the root *)
  reach : int;  (* the OR of every entry's reach mask *)
  own : 's;
}

type ('o, 'a, 's) level = {
  name : string;
  fault : string;
  max_ops : int;
  rank_first : bool;
  menu : Op.prim list;
  prim : Op.prim -> 'o;
  scope : int;
  extra : 'a value -> 'o list;
  make : 'o -> 'a value list -> ('a value, Tally.reason) result;
  admit : ('o, 'a, 's) state -> 'a value -> Tally.reason option;
  child : ('o, 'a, 's) state -> int -> 'a value -> ('s, Tally.reason) result;
}

module Nf = Absexpr.Nf

(* The goal distance (see prefix.mli). A reach mask holds the goal's
   exp/sqrt/silu atoms in bits [0, n) ([n] atoms), the bare form of atom
   [i], when it is a needed form, in bit [n + i], and the other needed
   forms from bit [2n] on. A goal has a handful of atoms and forms, so
   a value finds its bits by scanning them, hashing nothing. *)
type distance = {
  atoms : Nf.atom array;  (* the goal's atoms, by bit *)
  out_bits : int array;  (* spec output [j]'s needed-form bit, as a mask *)
  arg_forms : (Nf.t * int) array;
      (* the needed forms no output equals (atom arguments), with their
         masks *)
  need : int;  (* every goal atom's and needed form's bit *)
  outputs : int;  (* every output's form bit: what completion needs *)
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
  dist : distance;
}

(* A goal or reach mask stays a non-negative int. *)
let max_outputs = Sys.int_size - 1

let bare a = [ { Nf.sf = 1; num = [ a ]; den = Nf.trivial_den } ]

let same_atom a b =
  match (a, b) with
  | Nf.A_exp x, Nf.A_exp y | Nf.A_sqrt x, Nf.A_sqrt y | Nf.A_silu x, Nf.A_silu y
    ->
      Nf.equal x y
  | _ -> false

(* [f a x] for every exp/sqrt/silu atom [a] of argument [x] nested
   anywhere in [n]: in a term's numerator, in its denominator (an atom
   factor, an opaque sum, a reciprocal) and in another atom's argument. *)
let rec iter_atoms f (n : Nf.t) =
  List.iter
    (fun (t : Nf.term) ->
      List.iter (iter_atom f) t.num;
      iter_den f t.den)
    n

and iter_atom f = function
  | Nf.A_var _ -> ()
  | (Nf.A_exp x | Nf.A_sqrt x | Nf.A_silu x) as a ->
      f a x;
      iter_atoms f x

and iter_den f (d : Nf.den) =
  List.iter
    (function
      | Nf.D_atom a -> iter_atom f a
      | Nf.D_opaque n -> iter_atoms f n
      | Nf.D_inv d -> iter_den f d)
    d.dfacs

(* The distinct atoms nested in [ns], in order of first sight, each with
   its argument. *)
let distinct_atoms ns =
  let seen = ref [] in
  List.iter
    (iter_atoms (fun a x ->
         if not (List.exists (fun (b, _) -> same_atom a b) !seen) then
           seen := (a, x) :: !seen))
    ns;
  List.rev !seen

let atoms n = List.map (fun (a, _) -> bare a) (distinct_atoms [ n ])

let distance_of outputs =
  let goal_atoms = distinct_atoms outputs in
  let atoms = Array.of_list (List.map fst goal_atoms) in
  let n = Array.length atoms in
  (* each distinct needed form's bit: an atom's bare form's is fixed *)
  let forms = ref [] and next = ref (2 * n) in
  let bit_of f =
    match List.find_opt (fun (g, _) -> Nf.equal f g) !forms with
    | Some (_, bit) -> bit
    | None ->
        let bit =
          match f with
          | [ { Nf.sf = 1; num = [ a ]; den } ] when Nf.den_is_trivial den -> (
              let rec find i =
                if i = n then None
                else if same_atom a atoms.(i) then Some (n + i)
                else find (i + 1)
              in
              match find 0 with Some b -> b | None -> incr next; !next - 1)
          | _ ->
              incr next;
              !next - 1
        in
        forms := (f, bit) :: !forms;
        bit
  in
  let out_bits = Array.of_list (List.map (fun o -> 1 lsl bit_of o) outputs) in
  let arg_forms =
    List.filter_map
      (fun (_, x) ->
        if List.exists (Nf.equal x) outputs then None
        else Some (x, 1 lsl bit_of x))
      goal_atoms
    |> List.sort_uniq (fun (_, b) (_, b') -> Int.compare b b')
    |> Array.of_list
  in
  if !next > max_outputs then
    (* past the bits of an int, no cut: only the output bits completion
       tests, one per distinct output *)
    let rec first i o = function
      | p :: rest -> if Nf.equal o p then i else first (i + 1) o rest
      | [] -> i
    in
    let out_bits =
      Array.of_list (List.map (fun o -> 1 lsl first 0 o outputs) outputs)
    in
    let outputs = Array.fold_left ( lor ) 0 out_bits in
    { atoms = [||]; out_bits; arg_forms = [||]; need = 0; outputs }
  else
    let need =
      List.fold_left (fun m (_, bit) -> m lor (1 lsl bit)) ((1 lsl n) - 1) !forms
    in
    let outputs = Array.fold_left ( lor ) 0 out_bits in
    { atoms; out_bits; arg_forms; need; outputs }

(* A value's reach mask, from its goal mask and normal form: the goal
   atoms nested in it, and the needed form it equals. *)
let reach_of d goals nf =
  let m = ref 0 in
  for j = 0 to Array.length d.out_bits - 1 do
    if goals land (1 lsl j) <> 0 then m := !m lor d.out_bits.(j)
  done;
  for k = 0 to Array.length d.arg_forms - 1 do
    let f, bit = d.arg_forms.(k) in
    if Nf.equal nf f then m := !m lor bit
  done;
  if Array.length d.atoms > 0 then
    iter_atoms
      (fun a _ ->
        for i = 0 to Array.length d.atoms - 1 do
          if same_atom a d.atoms.(i) then m := !m lor (1 lsl i)
        done)
      nf;
  !m

let popcount m =
  let rec go m n = if m = 0 then n else go (m land (m - 1)) (n + 1) in
  go m 0

(* The missing goal atoms, plus the missing needed forms that are not a
   missing atom's bare form. *)
let bound d reach =
  let n = Array.length d.atoms in
  let missing = d.need land lnot reach in
  let atoms = missing land ((1 lsl n) - 1) in
  popcount atoms + popcount ((missing lsr n) land lnot atoms)

let atoms_made = function
  | Op.Unary (Op.Exp | Op.Sqrt | Op.Silu) -> 1
  | Op.Unary Op.Relu -> 2
  | _ -> 0

let cuts (cfg : Config.t) menu =
  cfg.Config.use_abstract_pruning
  && List.for_all (fun p -> atoms_made p <= 1) menu

let values outputs =
  if List.length outputs > max_outputs then
    invalid_arg
      (Printf.sprintf "Prefix.values: %d outputs exceed %d"
         (List.length outputs) max_outputs);
  {
    lock = Mutex.create ();
    by_nf = Absexpr.Nf.Tbl.create 16;
    next = 0;
    outputs = Array.of_list outputs;
    dist = distance_of outputs;
  }

(* The spec outputs a normal form equals, as a goal mask. *)
let goals_of t nf =
  let goals = ref 0 in
  Array.iteri
    (fun j o -> if Nf.equal nf o then goals := !goals lor (1 lsl j))
    t.outputs;
  !goals

let distance t nfs =
  bound t.dist
    (List.fold_left (fun m n -> m lor reach_of t.dist (goals_of t n) n) 0 nfs)

let level_reachable cfg t menu ~inputs ~max_ops =
  (not (cuts cfg menu)) || distance t inputs <= max_ops

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
      let goals = goals_of t v.nf in
      let w = { v with id = t.next; goals; reach = reach_of t.dist goals v.nf } in
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
    verdicts = Bytes.make 64 '\000';
    counts = Tally.acc tally front;
  }

let flush m = Tally.flush m.counts

let scope_cells m scope =
  match Int_tbl.find_opt m.scopes scope with
  | Some cells -> cells
  | None ->
      let cells = Int_tbl.create 16 in
      Int_tbl.add m.scopes scope cells;
      cells

(* The cells of the generation order. A cell's memo key holds its kind in
   the low two bits, then its inputs' value ids, 30 bits each ([b] is -1
   for a one-input cell). *)
type kind = Unary | Col | Row | Extra

let key kind a b (entries : (_, _) entry array) =
  let k = match kind with Unary -> 0 | Col -> 1 | Row -> 2 | Extra -> 3 in
  let id i = entries.(i).value.id in
  if b < 0 then k lor (id a lsl 2) else k lor (id a lsl 2) lor (id b lsl 32)

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

(* [pack_rank] of inputs [a] and [b] ([b] -1 for one input), unchecked:
   the engine's indices are below [rank_limit] (see [search]). *)
let rank2 a b = ((a + 1) lsl rank_bits) lor (b + 1)

(* Whether an operator of packed rank [r] falls below the one that made
   the prefix's newest entry (the canonical-rank reject): [compare_rank],
   reading that entry's operator only on a tie. *)
let before st r op =
  r < st.rank
  || r = st.rank
     && Stdlib.compare st.entries.(Array.length st.entries - 1).op op > 0

(* The inputs of slot [s] of bundle [k]: the first, and the second or -1. *)
let slot_a k s = if s = 0 || s = (2 * k) + 2 || s > k + 1 then k else s - 1

let slot_b k s =
  if s = 0 || s = (2 * k) + 2 then -1 else if s <= k + 1 then k else s - k - 2

let ins_list a b = if b < 0 then [ a ] else [ a; b ]

(* Whether [v] is the value of an entry of [entries] from index [i] on. *)
let rec recomputes entries i v =
  i < Array.length entries
  && (entries.(i).value.id = v.id || recomputes entries (i + 1) v)

let spec_goals spec = List.map Absexpr.Nf.of_expr (Abstract.output_exprs spec)

(* What one run adds to an engine: the roots each try stands for, what
   a complete prefix emits, the pool's spawn, and the depth from which
   the goal-distance cut is asked. *)
type ('o, 'a, 's) run = {
  weight : int;
  complete : Tally.t -> ('o, 'a, 's) state -> unit;
  spawn : (unit -> unit) -> bool;
  reach_from : int;
}

(* One subtree on the worker that runs it: its funnel view, that
   worker's memo and cells, and its run. *)
type ('o, 'a, 's) ctx = {
  tl : Tally.t;
  m : ('o, 'a) memo;
  by_key : ('o, 'a) cell Int_tbl.t;  (* [m]'s cells of the level's scope *)
  run : ('o, 'a, 's) run;
}

type ('o, 'a, 's) engine = {
  lv : ('o, 'a, 's) level;
  memo : unit -> ('o, 'a) memo;
  cut : bool;
  subtree : ('o, 'a, 's) run -> ('o, 'a, 's) state -> unit;
}

let engine (lv : ('o, 'a, 's) level) (cfg : Config.t) ~memo ~budget =
  let budget_check tl =
    Obs.Fault.trip lv.fault;
    if Obs.Budget.cancelled budget then begin
      Obs.Budget.note budget "cancelled";
      raise Budget_exhausted
    end;
    if Obs.Budget.nodes_exceeded budget (Tally.expanded tl) then begin
      Obs.Budget.note budget "node_budget";
      raise Budget_exhausted
    end;
    if Obs.Budget.over_deadline budget then begin
      Obs.Budget.note budget "deadline";
      raise Budget_exhausted
    end
  in
  (* The prune verdict of a value, asked through the worker's front the
     first time the worker meets the value. *)
  let pruned c v =
    let m = c.m in
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
          Obs.Profile.timed (Tally.timer c.tl) (fun () ->
              Prune.check cfg ~front:(Tally.front c.tl) v.nf)
        in
        Bytes.set m.verdicts v.id (if p then 'p' else 'k');
        p
  in
  (* The checks later entries cannot overturn, run once at birth. *)
  let judge c st v =
    if recomputes st.entries 0 v then v_duplicate
    else
      match lv.admit st v with
      | Some r -> v_refused r
      | None -> if pruned c v then v_pruned else v_alive
  in
  let pair_ordered = List.map lv.prim (pair_ops lv.menu ~ordered:true) in
  let pair_unordered = List.map lv.prim (pair_ops lv.menu ~ordered:false) in
  (* A cell's ops and made values, from the worker's memo or, the first
     time the worker meets its key, made and interned. *)
  let cell c kind st a b =
    let key = key kind a b st.entries in
    match Int_tbl.find c.by_key key with
    | cl -> cl
    | exception Not_found ->
        let vs = List.map (fun i -> st.entries.(i).value) (ins_list a b) in
        let ops =
          match kind with
          | Unary -> List.map lv.prim (unary_like lv.menu (List.hd vs).shape)
          | Col -> pair_ordered
          | Row -> pair_unordered
          | Extra -> lv.extra (List.hd vs)
        in
        let made = List.map (fun op -> (op, lv.make op vs)) ops in
        let values = c.m.values in
        let cl =
          Mutex.protect values.lock (fun () ->
              Array.of_list
                (List.map
                   (fun (op, r) -> (op, Result.map (intern_locked values) r))
                   made))
        in
        Int_tbl.add c.by_key key cl;
        cl
  in
  let canonical = Tally.index Tally.Canonical in
  (* The bundle of entry [k], made at prefix [st] after a table of
     [tries] tries, [lives] of them live, and [dead] dead by reason.
     A try is dead at birth when its reject is final: a structural one
     judged before rank, or a rank below the prefix's (the last rank
     never decreases down a path). The others keep the verdict of the
     checks a later entry cannot overturn. *)
  let make_bundle c st k ~tries ~lives ~dead =
    let n = (2 * k) + 3 in
    let cs = Array.make n [||] in
    cs.(0) <- cell c Unary st k (-1);
    for i = 0 to k do
      cs.(1 + i) <- cell c Col st i k
    done;
    for j = 0 to k - 1 do
      cs.(k + 2 + j) <- cell c Row st k j
    done;
    cs.(n - 1) <- cell c Extra st k (-1);
    let offs = Array.make (n + 1) 0 in
    for s = 0 to n - 1 do
      offs.(s + 1) <- offs.(s) + Array.length cs.(s)
    done;
    let verdicts = Bytes.create offs.(n) in
    let live = Array.make n 0 in
    let dead = Array.copy dead in
    for s = 0 to n - 1 do
      let r = rank2 (slot_a k s) (slot_b k s) in
      let cl = cs.(s) in
      let alive = ref 0 in
      for t = 0 to Array.length cl - 1 do
        let op, made = cl.(t) in
        let v =
          match made with
          | Error reason when not lv.rank_first ->
              let i = Tally.index reason in
              dead.(i) <- dead.(i) + 1;
              v_dead
          | _ when before st r op ->
              dead.(canonical) <- dead.(canonical) + 1;
              v_dead
          | Error _ -> v_unfit
          | Ok v -> judge c st v
        in
        if v <> v_dead then incr alive;
        Bytes.unsafe_set verdicts (offs.(s) + t) (Char.unsafe_chr v)
      done;
      live.(s) <- !alive
    done;
    {
      cells = cs;
      born = Array.length st.entries;
      verdicts;
      offs;
      live;
      tries = tries + offs.(n);
      lives = lives + Array.fold_left ( + ) 0 live;
      dead;
    }
  in
  (* The prefix's table: its parent's plus a bundle for each newer
     entry (one, below the root). *)
  let grow c st =
    let count = Array.length st.entries and known = Array.length st.table in
    if known = count then st.table
    else
      let b0 =
        if known = 0 then
          make_bundle c st 0 ~tries:0 ~lives:0
            ~dead:(Array.make Tally.n_reasons 0)
        else
          let p = st.table.(known - 1) in
          make_bundle c st known ~tries:p.tries ~lives:p.lives ~dead:p.dead
      in
      let table = Array.make count b0 in
      Array.blit st.table 0 table 0 known;
      for k = known + 1 to count - 1 do
        let p = table.(k - 1) in
        table.(k) <-
          make_bundle c st k ~tries:p.tries ~lives:p.lives ~dead:p.dead
      done;
      table
  in
  (* The live tries of slot [s] of bundle [k] in generation order, its
     inputs [a] and [b] and packed rank [r] not below the prefix's (only
     a slot of the prefix's own rank compares operators), each failing
     one check or kept; the kept children are consed onto [kept]. *)
  let visit_slot c st table kept k s a b r =
    let bd = table.(k) in
    let cl = bd.cells.(s) and off = bd.offs.(s) in
    let kept = ref kept in
    if bd.live.(s) > 0 then
      for t = 0 to Array.length cl - 1 do
        let v = Char.code (Bytes.unsafe_get bd.verdicts (off + t)) in
        if v <> v_dead then begin
          let op, made = cl.(t) in
          if before st r op then Tally.reject c.tl Tally.Canonical
          else
            match made with
            | Error reason -> Tally.reject c.tl reason
            | Ok x when v = v_duplicate || recomputes st.entries bd.born x ->
                Tally.reject c.tl Tally.Duplicate
            | Ok _ when v >= 8 -> Tally.reject c.tl (Tally.of_index (v - 8))
            | Ok x -> (
                match lv.admit st x with
                | Some reason -> Tally.reject c.tl reason
                | None when v = v_pruned -> Tally.reject c.tl Tally.Pruned
                | None -> (
                    let reads =
                      (1 lsl a) lor if b < 0 then 0 else 1 lsl b
                    in
                    match lv.child st reads x with
                    | Error reason -> Tally.reject c.tl reason
                    | Ok _
                      when st.ops >= c.run.reach_from
                           && st.ops + 1
                              + bound c.m.values.dist (st.reach lor x.reach)
                              > lv.max_ops ->
                        Tally.reject c.tl Tally.Unreachable
                    | Ok own ->
                        let count = Array.length st.entries in
                        let e = { op; ins = ins_list a b; value = x } in
                        let entries = Array.make (count + 1) e in
                        Array.blit st.entries 0 entries 0 count;
                        kept :=
                          {
                            entries;
                            table;
                            ops = st.ops + 1;
                            rank = r;
                            reach = st.reach lor x.reach;
                            own;
                          }
                          :: !kept))
        end
      done;
    !kept
  in
  (* One prefix. Every try in its table is counted (the funnel's
     [expanded], in one batch before the first is judged) and either
     fails one check — counted under exactly one rejection reason — or
     is kept; only then are the kept children searched, in generation
     order. Tries dead at birth, and the live ones whose slot's rank
     lies below the prefix's (all of the rows before the last
     operator's first input [l], and some slots of row [l]), are
     counted in bulk; the rest are visited one by one. *)
  let rec extend c st =
    budget_check c.tl;
    let dist = c.m.values.dist in
    if st.reach land dist.outputs = dist.outputs then c.run.complete c.tl st;
    if st.ops < lv.max_ops then begin
      let count = Array.length st.entries in
      let table = grow c st in
      let top = table.(count - 1) in
      Tally.expand c.tl top.tries;
      (* the last operator's first input; -1 at the root *)
      let l = (st.rank lsr rank_bits) - 1 in
      (* the live tries of the rows before [l]: bundles [0 .. l-1], and
         the pairs [(i, k)], [i < l], of the later ones *)
      let below = ref (if l > 0 then table.(l - 1).lives else 0) in
      for k = max l 0 to count - 1 do
        let live = table.(k).live in
        for i = 0 to l - 1 do
          below := !below + live.(1 + i)
        done
      done;
      (* rows [l ..] in generation order: unary-like, pairs, extra; a
         slot of row [l] ranked below the prefix is counted in bulk *)
      let kept = ref [] in
      for i = max l 0 to count - 1 do
        let bi = table.(i) in
        let r1 = rank2 i (-1) in
        if r1 < st.rank then below := !below + bi.live.(0)
        else kept := visit_slot c st table !kept i 0 i (-1) r1;
        for j = 0 to count - 1 do
          let r = rank2 i j in
          if i <= j then
            if r < st.rank then below := !below + table.(j).live.(1 + i)
            else kept := visit_slot c st table !kept j (1 + i) i j r
          else if r < st.rank then below := !below + bi.live.(i + 2 + j)
          else kept := visit_slot c st table !kept i (i + 2 + j) i j r
        done;
        if r1 < st.rank then below := !below + bi.live.((2 * i) + 2)
        else kept := visit_slot c st table !kept i ((2 * i) + 2) i (-1) r1
      done;
      for i = 0 to Tally.n_reasons - 1 do
        Tally.reject_n c.tl (Tally.of_index i)
          (top.dead.(i) + if i = canonical then !below else 0)
      done;
      descend c (List.rev !kept)
    end
  (* The kept children in generation order. A shallow child roots a
     large subtree: it goes to the pool when a worker is hungry for
     work; otherwise, past the cutoff, and when fewer than two operator
     levels remain below it (one table of leaves, cheaper to search
     here than to hand over), it is searched here. *)
  and descend c = function
    | [] -> ()
    | st :: rest ->
        if
          st.ops > cfg.Config.steal_depth_cutoff
          || lv.max_ops - st.ops < 2
          || not (c.run.spawn (fun () -> subtree c.run st))
        then extend c st;
        descend c rest
  (* A subtree on the worker that runs it: that worker's memo, front
     and funnel buffer, and a prune-check timer that flushes under this
     task even when the budget cuts the DFS short. *)
  and subtree run st =
    let m = memo () in
    Tally.run m.counts ~weight:run.weight (fun tl ->
        extend { tl; m; by_key = scope_cells m lv.scope; run } st)
  in
  { lv; memo; cut = cuts cfg lv.menu; subtree }

let intern t v = Mutex.protect t.lock (fun () -> intern_locked t v)

let run e ?(spawn = fun _ -> false) ~weight ~complete inputs own =
  (* The inputs, interned, and the goal distance from the level's value
     table. The distance never grows down a path, so the tries of a
     prefix shallower than [reach_from] (of every prefix, with the cut
     off) cannot be cut, and their distance is not asked. *)
  if Array.length inputs + e.lv.max_ops > rank_limit then
    invalid_arg
      (Printf.sprintf "Prefix.run: %d inputs and %d ops exceed %d entries"
         (Array.length inputs) e.lv.max_ops rank_limit);
  let values = (e.memo ()).values in
  let entries =
    if Array.for_all (fun (en : ('o, 'a) entry) -> en.value.id >= 0) inputs
    then inputs
    else
      Mutex.protect values.lock (fun () ->
          Array.map
            (fun (en : ('o, 'a) entry) ->
              if en.value.id >= 0 then en
              else { en with value = intern_locked values en.value })
            inputs)
  in
  let reach = Array.fold_left (fun r en -> r lor en.value.reach) 0 entries in
  let reach_from =
    if e.cut then e.lv.max_ops - bound values.dist reach else max_int
  in
  e.subtree
    { weight; complete; spawn; reach_from }
    { entries; table = [||]; ops = 0; rank = 0; reach; own }
