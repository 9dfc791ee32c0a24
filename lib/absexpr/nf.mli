(** Canonical normal forms for abstract expressions modulo the equivalence
    axioms [A_eq] of paper Table 2, and the decision procedure for the
    [subexpr] relation modulo [A_eq ∪ A_sub].

    [A_eq] consists of: AC laws for [add]/[mul], distributivity of [mul]
    and [div] over [add], quotient laws
    [mul(x,div(y,z)) = div(mul(x,y),z)] and
    [div(div(x,y),z) = div(x,mul(y,z))], and the sum laws
    [x = sum(1,x)], [sum(i,sum(j,x)) = sum(i*j,x)], and distribution of
    [sum] over [add]/[mul]/[div].

    These laws rewrite every expression into a multiset of terms
    [sum(sf, a1·…·an / D)] where the [ai] are atoms (variables or opaque
    [exp]/[sqrt]/[silu] applications) and [D] is a canonical denominator —
    a product of a bare reduction factor, atoms, opaque sums, and
    reciprocals of denominators (reciprocals arise from division by a
    quotient, which [A_eq] treats opaquely: there is deliberately no
    cancellation, see paper §4.3). Two expressions are [A_eq]-equivalent
    iff their normal forms are equal. *)

type atom = A_var of string | A_exp of t | A_sqrt of t | A_silu of t

and dfac =
  | D_atom of atom
  | D_opaque of t  (** a sum (>= 2 terms): no law decomposes it *)
  | D_inv of den  (** reciprocal, from dividing by a quotient *)

and den = { dsum : int; dfacs : dfac list }
(** the product [sum(dsum, 1) · Π dfacs]; [dfacs] is a sorted multiset *)

and term = { sf : int; num : atom list; den : den }

and t = term list
(** sorted multiset of terms (an [add] of terms) *)

val trivial_den : den
val den_is_trivial : den -> bool

val of_expr : Expr.t -> t
(** Normalize. Total; worst case exponential in nesting of [mul] over
    [add] (distribution), fine for the expression sizes muGraphs yield. *)

(** {2 Incremental construction}

    The generator maintains normal forms directly — applying one operator
    to already-normalized inputs — so extending a prefix never
    re-normalizes whole expression trees. Each function agrees with
    [of_expr] of the corresponding constructor. *)

val nf_var : string -> t
val nf_add : t -> t -> t
val nf_mul : t -> t -> t
val nf_div : t -> t -> t
val nf_sum : int -> t -> t
val nf_exp : t -> t
val nf_sqrt : t -> t
val nf_silu : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val equivalent : Expr.t -> Expr.t -> bool
(** [A_eq ⊨ e1 = e2], decided by normal-form equality. *)

(** {2 The subexpression relation}

    [A_eq ∪ A_sub ⊨ subexpr(n, g)] holds when (a) [n] times a single
    term is a nonempty sub-multiset of [g]'s terms ({!quotient_subset}),
    or (b) [n] is a subexpression of a form nested in [g]: an
    [exp]/[sqrt]/[silu] argument, or the reified denominator of one of
    [g]'s terms (axioms [subexpr(x, exp(x))], [subexpr(y, div(x, y))],
    closed under transitivity).

    Unfolding (b) gives [∃ m ∈ C(g). n = m ∨ quotient_subset n m], where
    the {e goal closure} [C(g)] is [g] itself plus, recursively, [C] of
    every nested argument and of every non-trivial term's reified
    denominator. The unfolding is exact, not an approximation: (b) is a
    disjunction over exactly those nested forms, each decided by the
    same relation, so [C(g)] holds every form the recursion would
    reach, and only those. [C(g)] depends on [g] alone, so a search
    builds it once ({!goal}) and every query is a scan of it, never
    re-reifying a goal denominator.

    Sound with respect to [A_sub] (every accepted pair is derivable) and
    complete for the prefix/extension pattern of Algorithm 1: an
    operator's input is always accepted against the operator's output —
    the property used in the proof of paper Theorem 1. *)

type goal
(** A goal index: the union of the closures [C(g)] of a set of goals,
    each distinct form once. *)

val goal : t list -> goal
(** Build the index of a set of goals. *)

val decide : goal -> t -> bool
(** [decide idx n]: whether [n] is a subexpression of at least one of
    the indexed goals. *)

val is_subexpr : t -> t -> bool
(** [is_subexpr n g] is [decide (goal [g]) n]. *)

val subexpr : Expr.t -> Expr.t -> bool
(** [is_subexpr] on the normal forms. *)

val quotient_subset : t -> t -> bool
(** Case (a) alone: some single term [q] makes [n1 · q] a nonempty
    sub-multiset of [n2]'s terms. *)

val reify_den : den -> t
(** The denominator as a normal form of its own (a goal closure holds
    the reified denominators of its terms). *)

val num_terms : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val hash : t -> int
(** Full-depth structural hash: equal normal forms hash equal, and every
    atom, factor and reduction size, however deep, feeds it. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by normal form, with {!hash} and {!equal}. *)
