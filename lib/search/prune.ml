(* The abstract-expression prune check (paper §5: a prefix survives only
   if its abstract expression is a subexpression of some goal output
   under the axioms A_eq ∪ A_sub), shared by the kernel-level and
   block-level enumerators.

   One site in two halves: [query] asks the solver, where an extension
   is evaluated; [reject] counts and journals the rejection, where a try
   is visited. The block level evaluates an extension once and visits it
   at every descendant prefix, so it queries once and may reject many
   times; the kernel level does both at one try. Either way the funnel
   counter, the per-depth histogram and the journal reject record can
   never drift apart between levels. *)

let check (cfg : Config.t) ~front nf =
  cfg.Config.use_abstract_pruning && not (Smtlite.Solver.check_front front nf)

let journal_fields nf =
  [
    ("expr", Obs.Jsonw.Str (Absexpr.Nf.to_string nf));
    ("failed_check", Obs.Jsonw.Str "subexpr(E(G), E_O) under A_eq ∪ A_sub");
  ]

let query (cfg : Config.t) tally nf =
  Obs.Profile.timed (Tally.timer tally) (fun () ->
      check cfg ~front:(Tally.front tally) nf)

let reject tally ~depth ~remaining
    ~(jreject : string -> (string * Obs.Jsonw.t) list -> unit) ~journal_live
    nf =
  Tally.reject tally Tally.Pruned ~depth ~remaining;
  jreject "pruned_abstract" (if journal_live then journal_fields nf else [])
