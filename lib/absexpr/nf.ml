type atom = A_var of string | A_exp of t | A_sqrt of t | A_silu of t

and dfac = D_atom of atom | D_opaque of t | D_inv of den

and den = { dsum : int; dfacs : dfac list }

and term = { sf : int; num : atom list; den : den }

and t = term list

(* Structural comparison, a total order for sorted-multiset canonicity.
   Typed, and of the same sign as [Stdlib.compare] on every pair, which
   the sorted forms (and so every printed form, hash and stored key)
   were built with: constructors by declaration order, then their
   fields left to right; records field by field; [[]] below a cons;
   strings as [String.compare] orders them. *)
let rec compare_list cmp l l' =
  match (l, l') with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: r, x' :: r' ->
      let c = cmp x x' in
      if c <> 0 then c else compare_list cmp r r'

let rec compare_atom a a' =
  if a == a' then 0
  else
    match (a, a') with
    | A_var x, A_var x' -> String.compare x x'
    | A_exp n, A_exp n' | A_sqrt n, A_sqrt n' | A_silu n, A_silu n' ->
        compare n n'
    | _ -> Int.compare (atom_tag a) (atom_tag a')

and atom_tag = function A_var _ -> 0 | A_exp _ -> 1 | A_sqrt _ -> 2 | A_silu _ -> 3

and compare_dfac f f' =
  if f == f' then 0
  else
    match (f, f') with
    | D_atom a, D_atom a' -> compare_atom a a'
    | D_opaque n, D_opaque n' -> compare n n'
    | D_inv d, D_inv d' -> compare_den d d'
    | _ -> Int.compare (dfac_tag f) (dfac_tag f')

and dfac_tag = function D_atom _ -> 0 | D_opaque _ -> 1 | D_inv _ -> 2

and compare_den d d' =
  let c = Int.compare d.dsum d'.dsum in
  if c <> 0 then c else compare_list compare_dfac d.dfacs d'.dfacs

and compare_term s s' =
  if s == s' then 0
  else
    let c = Int.compare s.sf s'.sf in
    if c <> 0 then c
    else
      let c = compare_list compare_atom s.num s'.num in
      if c <> 0 then c else compare_den s.den s'.den

and compare (n : t) (n' : t) =
  if n == n' then 0 else compare_list compare_term n n'

let equal a b = compare a b = 0

let sort_atoms l = List.sort compare_atom l
let sort_dfacs l = List.sort compare_dfac l
let sort_terms l = List.sort compare_term l

let trivial_den = { dsum = 1; dfacs = [] }
let den_is_trivial d = d.dsum = 1 && d.dfacs = []

(* Whether a denominator contains an opaque sum factor. *)
let has_opaque d =
  List.exists (function D_opaque _ -> true | _ -> false) d.dfacs

(* Canonicalize a denominator: mixed products of atoms and opaque sums are
   route-dependent (div(div(x,y), S) vs div(x, mul(y, S))), so whenever an
   opaque sum is present the whole denominator collapses into a single
   opaque product. "Contains a sum factor" is an A_eq invariant of the
   divisor (sums cannot become products without cancellation), so the
   collapse is canonical. Defined mutually with reify/nf_mul below. *)
let rec normalize_den (d : den) : den =
  if not (has_opaque d) then { d with dfacs = sort_dfacs d.dfacs }
  else { dsum = 1; dfacs = [ D_opaque (reify_raw d) ] }

and reify_raw (d : den) : t =
  let base = [ { sf = d.dsum; num = []; den = trivial_den } ] in
  List.fold_left
    (fun acc f ->
      match f with
      | D_atom a -> nf_mul acc [ { sf = 1; num = [ a ]; den = trivial_den } ]
      | D_opaque n -> nf_mul acc n
      | D_inv dd -> nf_mul acc [ { sf = 1; num = []; den = dd } ])
    base d.dfacs

and den_mul d1 d2 =
  normalize_den
    { dsum = d1.dsum * d2.dsum; dfacs = sort_dfacs (d1.dfacs @ d2.dfacs) }

and term_mul t1 t2 =
  {
    sf = t1.sf * t2.sf;
    num = sort_atoms (t1.num @ t2.num);
    den = den_mul t1.den t2.den;
  }

and nf_mul (n1 : t) (n2 : t) : t =
  sort_terms
    (List.concat_map (fun t1 -> List.map (fun t2 -> term_mul t1 t2) n2) n1)

(* The canonical denominator contributed by a divisor with normal form
   [n]: a single term [sum(sf, Πnum / d)] decomposes into the bare
   reduction factor, its atoms, and the reciprocal of its own denominator
   (axioms div(div(x,y),z) = div(x, mul(y,z)) and
   mul(x, div(y,z)) = div(mul(x,y), z) justify the flattening); a
   multi-term sum stays opaque. *)
let den_of_nf (n : t) : den =
  match n with
  | [ { sf; num; den } ] ->
      let inv = if den_is_trivial den then [] else [ D_inv den ] in
      normalize_den
        { dsum = sf;
          dfacs = sort_dfacs (List.map (fun a -> D_atom a) num @ inv) }
  | _ -> { dsum = 1; dfacs = [ D_opaque n ] }

let rec of_expr (e : Expr.t) : t =
  match e with
  | Expr.Var v -> [ { sf = 1; num = [ A_var v ]; den = trivial_den } ]
  | Expr.Add (a, b) -> sort_terms (of_expr a @ of_expr b)
  | Expr.Mul (a, b) -> nf_mul (of_expr a) (of_expr b)
  | Expr.Div (a, b) ->
      let contribution = den_of_nf (of_expr b) in
      sort_terms
        (List.map
           (fun t -> { t with den = den_mul t.den contribution })
           (of_expr a))
  | Expr.Sum (i, a) ->
      sort_terms (List.map (fun t -> { t with sf = t.sf * i }) (of_expr a))
  | Expr.Exp a -> [ { sf = 1; num = [ A_exp (of_expr a) ]; den = trivial_den } ]
  | Expr.Sqrt a ->
      [ { sf = 1; num = [ A_sqrt (of_expr a) ]; den = trivial_den } ]
  | Expr.Silu a ->
      [ { sf = 1; num = [ A_silu (of_expr a) ]; den = trivial_den } ]

let equivalent e1 e2 = equal (of_expr e1) (of_expr e2)

let nf_var v = [ { sf = 1; num = [ A_var v ]; den = trivial_den } ]
let nf_add a b = sort_terms (a @ b)

let nf_div a b =
  let contribution = den_of_nf b in
  sort_terms (List.map (fun t -> { t with den = den_mul t.den contribution }) a)

let nf_sum i a =
  if i <= 0 then invalid_arg "Nf.nf_sum";
  if i = 1 then a
  else sort_terms (List.map (fun t -> { t with sf = t.sf * i }) a)

let nf_exp a = [ { sf = 1; num = [ A_exp a ]; den = trivial_den } ]
let nf_sqrt a = [ { sf = 1; num = [ A_sqrt a ]; den = trivial_den } ]
let nf_silu a = [ { sf = 1; num = [ A_silu a ]; den = trivial_den } ]

(* Multiset difference over sorted lists: [diff big small] returns the
   remainder if [small] is included in [big]. *)
let rec multiset_diff cmp big small =
  match big, small with
  | rest, [] -> Some rest
  | [], _ :: _ -> None
  | b :: bs, s :: ss ->
      let c = cmp b s in
      if c = 0 then multiset_diff cmp bs ss
      else if c < 0 then
        Option.map (fun r -> b :: r) (multiset_diff cmp bs small)
      else None

(* Exact division of denominators and of whole normal forms. Collapsed
   denominators (single opaque products) require polynomial division: we
   repeatedly peel the leading (maximal) term of the dividend against
   candidate divisor terms. The pairing search makes this exact enough
   for every shape the generator produces; a missed division only weakens
   the subexpression relation, never breaks soundness. *)
let rec den_quotient ~(small : den) ~(big : den) : den option =
  if den_is_trivial small then Some big
  else if not (has_opaque small || has_opaque big) then
    if small.dsum <= 0 || big.dsum mod small.dsum <> 0 then None
    else
      match multiset_diff compare_dfac big.dfacs small.dfacs with
      | None -> None
      | Some rest -> Some { dsum = big.dsum / small.dsum; dfacs = rest }
  else
    match nf_exact_div (reify_raw big) (reify_raw small) with
    | None -> None
    | Some q -> Some (den_of_nf q)

(* Quotient of two terms: q with small * q = big, if it exists. *)
and term_quotient ~(small : term) ~(big : term) : term option =
  if small.sf <= 0 || big.sf mod small.sf <> 0 then None
  else
    match multiset_diff compare_atom big.num small.num with
    | None -> None
    | Some num_rest -> (
        match den_quotient ~small:small.den ~big:big.den with
        | None -> None
        | Some den_rest ->
            Some { sf = big.sf / small.sf; num = num_rest; den = den_rest })

(* Exact multivariate "polynomial" division of term multisets:
   [nf_exact_div p d = Some q] iff q * d = p. *)
and nf_exact_div (p : t) (d : t) : t option =
  match p, d with
  | [], [] -> None
  | [], _ -> Some []
  | _, [] -> None
  | _, [ dt ] ->
      let rec all acc = function
        | [] -> Some (sort_terms acc)
        | pt :: rest -> (
            match term_quotient ~small:dt ~big:pt with
            | Some q -> all (q :: acc) rest
            | None -> None)
      in
      all [] p
  | _ ->
      (* The maximal term of p must be the product of some quotient term
         with some term of d; try every pairing. *)
      let leading l = List.nth l (List.length l - 1) in
      let pl = leading p in
      let try_with dt =
        match term_quotient ~small:dt ~big:pl with
        | None -> None
        | Some q0 -> (
            let prod = sort_terms (List.map (fun t -> term_mul t q0) d) in
            match multiset_diff compare_term p prod with
            | None -> None
            | Some rest -> (
                match nf_exact_div rest d with
                | None -> None
                | Some qs -> Some (sort_terms (q0 :: qs))))
      in
      List.find_map try_with d

let terms_included sub all =
  Option.is_some (multiset_diff compare_term all sub)

(* The denominator as a normal form of its own. *)
let reify_den = reify_raw

(* Case (a) of the subexpression relation: exists a single term q such
   that n1 * q is a sub-multiset of n2. Derivation in A_sub:
   n1 <= mul(n1, q) <= add(mul(n1, q), rest). The candidate quotients
   are exactly the quotients of n2's terms by n1's first term. *)
let quotient_subset n1 n2 =
  match n1 with
  | [] -> false
  | t1 :: _ ->
      List.exists
        (fun t2 ->
          match term_quotient ~small:t1 ~big:t2 with
          | None -> false
          | Some q ->
              let scaled = sort_terms (List.map (fun t -> term_mul t q) n1) in
              terms_included scaled n2)
        n2

let num_terms (n : t) = List.length n

let rec to_string (n : t) =
  String.concat " + " (List.map term_to_string n)

and term_to_string t =
  let num =
    match t.num with
    | [] -> "1"
    | l -> String.concat "*" (List.map atom_to_string l)
  in
  let den = if den_is_trivial t.den then "" else "/(" ^ den_to_string t.den ^ ")" in
  if t.sf = 1 then num ^ den else Printf.sprintf "S%d[%s%s]" t.sf num den

and atom_to_string = function
  | A_var v -> v
  | A_exp i -> Printf.sprintf "exp(%s)" (to_string i)
  | A_sqrt i -> Printf.sprintf "sqrt(%s)" (to_string i)
  | A_silu i -> Printf.sprintf "silu(%s)" (to_string i)

and den_to_string d =
  let facs =
    List.map
      (function
        | D_atom a -> atom_to_string a
        | D_opaque n -> "(" ^ to_string n ^ ")"
        | D_inv dd -> "1/(" ^ den_to_string dd ^ ")")
      d.dfacs
  in
  let facs = if d.dsum = 1 then facs else Printf.sprintf "S%d" d.dsum :: facs in
  String.concat " * " facs

let pp fmt n = Format.pp_print_string fmt (to_string n)

(* Full-depth structural hash: every constructor, reduction factor and
   variable name feeds it, so forms that differ only deep inside hash
   apart ([Hashtbl.hash] reads just the first few meaningful words). Each
   constructor feeds a tag and each list its length. *)
let mix h x = (h * 65599) + x

let rec hash_nf h (n : t) = mix (List.fold_left hash_term h n) (List.length n)

and hash_term h t =
  let h = List.fold_left hash_atom (mix h t.sf) t.num in
  hash_den (mix h (List.length t.num)) t.den

and hash_atom h = function
  | A_var v -> mix (mix h 1) (Hashtbl.hash v)
  | A_exp n -> hash_nf (mix h 2) n
  | A_sqrt n -> hash_nf (mix h 3) n
  | A_silu n -> hash_nf (mix h 4) n

and hash_den h d =
  mix (List.fold_left hash_dfac (mix h d.dsum) d.dfacs) (List.length d.dfacs)

and hash_dfac h = function
  | D_atom a -> hash_atom (mix h 5) a
  | D_opaque n -> hash_nf (mix h 6) n
  | D_inv d -> hash_den (mix h 7) d

(* A final avalanche, so the low bits a table indexes by depend on every
   input word. *)
let hash (n : t) =
  let h = hash_nf 0 n in
  let h = (h lxor (h lsr 31)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  (h lxor (h lsr 33)) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* The goal closure C: each goal, then, depth first, the closure of every
   nested exp/sqrt/silu argument and of every non-trivial term's reified
   denominator, each distinct form once. Case (b) of the subexpression
   relation (axioms subexpr(x, exp(x)), subexpr(y, div(x,y)), closed
   under transitivity) is exactly membership of a case-(a) match in C,
   so a query never re-reifies a goal denominator. Terms often share a
   denominator (nTrans's goal has 11 non-trivial ones, 4 distinct), and
   a denominator already reified has its form in C, so it is reified
   once. *)
type goal = t array

let goal (gs : t list) : goal =
  let seen = Tbl.create 64 in
  let members = ref [] and reified = ref [] in
  let rec add n =
    if not (Tbl.mem seen n) then begin
      Tbl.add seen n ();
      members := n :: !members;
      List.iter
        (fun t ->
          List.iter
            (function A_var _ -> () | A_exp i | A_sqrt i | A_silu i -> add i)
            t.num;
          let d = t.den in
          if
            not
              (den_is_trivial d
              || List.exists (fun d' -> compare_den d d' = 0) !reified)
          then begin
            reified := d :: !reified;
            add (reify_den d)
          end)
        n
    end
  in
  List.iter add gs;
  Array.of_list (List.rev !members)

let decide (g : goal) n =
  Array.exists (fun m -> equal n m || quotient_subset n m) g

let is_subexpr n1 n2 = decide (goal [ n2 ]) n1
let subexpr e1 e2 = is_subexpr (of_expr e1) (of_expr e2)
