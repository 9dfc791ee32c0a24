(* One qcheck seed for every property suite, so a tier-1 run checks the
   same cases each time: [default], or [QCHECK_SEED] when it is set to
   an integer. Each property gets a fresh generator state from it, as
   [QCheck_alcotest.to_alcotest] gives one from its own seed. *)

let default = 20_251_018

let seed =
  lazy
    (let s =
       Option.value ~default
         (Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt)
     in
     Printf.printf "qcheck seed: %d\n%!" s;
     s)

let to_alcotest t =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Lazy.force seed |])
    t
