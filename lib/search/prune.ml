(* The abstract-expression prune check (paper §5: a prefix survives only
   if its abstract expression is a subexpression of some goal output
   under the axioms A_eq ∪ A_sub), shared by the kernel-level and
   block-level enumerators.

   Both enumerators used to inline the same check + stats bump + journal
   event; this module is the single site, so the funnel counter, the
   per-depth histogram and the journal reject record can never drift
   apart between levels. *)

let check (cfg : Config.t) ~front nf =
  cfg.Config.use_abstract_pruning && not (Smtlite.Solver.check_front front nf)

let journal_fields nf =
  [
    ("expr", Obs.Jsonw.Str (Absexpr.Nf.to_string nf));
    ("failed_check", Obs.Jsonw.Str "subexpr(E(G), E_O) under A_eq ∪ A_sub");
  ]

(* [reject_if_pruned] returns [true] when the prefix must be discarded,
   after counting the rejection in the subtree's tally (funnel counter,
   depth histogram and prune-rule fire, with [remaining] operator slots
   below the cut) and emitting the journal reject through [jreject].
   [journal_live] keeps the Jsonw field construction off the hot path
   when no journal is installed (the enumerators' [jreject] wrappers drop
   the event anyway). The query goes through the worker's solver front,
   and its wall time accumulates in the tally's batched timer. *)
let reject_if_pruned (cfg : Config.t) tally ~depth ~remaining
    ~(jreject : string -> (string * Obs.Jsonw.t) list -> unit) ~journal_live
    nf =
  if
    Obs.Profile.timed (Tally.timer tally) (fun () ->
        check cfg ~front:(Tally.front tally) nf)
  then begin
    Tally.reject tally Tally.Pruned ~depth ~remaining;
    jreject "pruned_abstract" (if journal_live then journal_fields nf else []);
    true
  end
  else false
