open Tensor
open Mugraph
module Fpair = Ffield.Fpair
module Fpacked = Ffield.Fpacked
module Zmod = Ffield.Zmod

type result =
  | Equivalent
  | Not_equivalent of string
  | Rejected of string

type detail = { result : result; trials_run : int; resamples : int }

exception Resample

(* Verifier telemetry, in the process-wide registry (the verifier has no
   per-run registry of its own). Off the printed path by default. *)
module Vm = struct
  let reg () = Obs.Metrics.default ()

  let trials =
    lazy (Obs.Metrics.counter (reg ()) ~help:"finite-field trials run" "verify.trials")

  let resamples =
    lazy
      (Obs.Metrics.counter (reg ()) ~help:"trials resampled on a zero divisor"
         "verify.resamples")

  let equivalent =
    lazy (Obs.Metrics.counter (reg ()) ~help:"candidates found equivalent" "verify.equivalent")

  let not_equivalent =
    lazy
      (Obs.Metrics.counter (reg ()) ~help:"candidates refuted by a trial"
         "verify.not_equivalent")

  let rejected_interface =
    lazy
      (Obs.Metrics.counter (reg ())
         ~help:"candidates rejected before any trial (interface mismatch)"
         "verify.rejected.interface")

  let rejected_lax =
    lazy
      (Obs.Metrics.counter (reg ()) ~help:"candidates rejected as non-LAX"
         "verify.rejected.not_lax")

  let rejected_resample =
    lazy
      (Obs.Metrics.counter (reg ())
         ~help:"candidates rejected after too many zero-divisor resamples"
         "verify.rejected.resample_limit")

  let trial_s =
    lazy
      (Obs.Metrics.hdr (reg ()) ~help:"wall time of one trial (s)"
         "verify.trial_s")

  let spec_cache_hits =
    lazy
      (Obs.Metrics.counter (reg ())
         ~help:"trial lookups served from the spec-output cache"
         "verify.spec_cache.hits")

  let spec_cache_misses =
    lazy
      (Obs.Metrics.counter (reg ())
         ~help:"trial lookups that evaluated the spec graph"
         "verify.spec_cache.misses")
end

(* OCaml's Lazy is not domain-safe; parallel verification forces every
   handle from the spawning domain first. *)
let warm () =
  ignore (Lazy.force Vm.trials);
  ignore (Lazy.force Vm.resamples);
  ignore (Lazy.force Vm.equivalent);
  ignore (Lazy.force Vm.not_equivalent);
  ignore (Lazy.force Vm.rejected_interface);
  ignore (Lazy.force Vm.rejected_lax);
  ignore (Lazy.force Vm.rejected_resample);
  ignore (Lazy.force Vm.trial_s);
  ignore (Lazy.force Vm.spec_cache_hits);
  ignore (Lazy.force Vm.spec_cache_misses)

(* A keyed random oracle over raw field components: the
   uninterpreted-function abstraction for Sqrt and SiLU. Deterministic
   within one trial (the trial seed is part of the key), so equal
   arguments give equal results in both graphs. Built on a stateless
   splitmix-style mix instead of allocating a [Random.State] per element;
   shared by the packed and boxed representations so the two paths are
   value-identical. [vq_code] is -1 when the Z_q component is consumed.

   Nonzero components: sqrt results are overwhelmingly used as divisors
   (normalizations), and an oracle that avoids 0 keeps the zero-divisor
   resampling rate independent of tensor sizes. Any injective-ish
   function is a valid realization of an uninterpreted function. *)
let oracle_vals ~p ~q ~trial_seed ~salt vp vq_code =
  let k0 = Fpacked.mix (trial_seed lxor (salt * 0x9E3779B1)) in
  let k1 = Fpacked.mix (k0 lxor vp) in
  let k2 = Fpacked.mix (k1 lxor (vq_code + 1)) in
  (1 + (k2 mod (p - 1)), 1 + (Fpacked.mix k2 mod (q - 1)))

let field_ops ~p ~q ~trial_seed ctx : Fpair.t Element.ops =
  let base = Element.fpair_ops ctx in
  let oracle salt (x : Fpair.t) =
    let vq_code = match x.Fpair.vq with Some v -> v | None -> -1 in
    let rp, rq = oracle_vals ~p ~q ~trial_seed ~salt x.Fpair.vp vq_code in
    { Fpair.vp = rp; vq = Some rq }
  in
  {
    base with
    Element.sqrt = oracle 1;
    silu = oracle 2;
    relu =
      (fun _ -> raise (Fpair.Unsupported "relu reached the LAX verifier"));
  }

let packed_ops ~p ~q ~trial_seed (ctx : Fpacked.ctx) : Fpacked.t Element.ops =
  let base = Element.fpacked_ops ctx in
  let oracle salt x =
    let vq_code = if Fpacked.has_q x then Fpacked.vq x else -1 in
    let rp, rq = oracle_vals ~p ~q ~trial_seed ~salt (Fpacked.vp x) vq_code in
    Fpacked.pack rp rq
  in
  { base with Element.sqrt = oracle 1; silu = oracle 2 }

let interface_mismatch ~spec g =
  let names_s = Graph.input_names spec and names_g = Graph.input_names g in
  let shapes_s = Graph.input_shapes spec and shapes_g = Graph.input_shapes g in
  if names_s <> names_g then Some "input names differ"
  else if
    List.length shapes_s <> List.length shapes_g
    || not (List.for_all2 Shape.equal shapes_s shapes_g)
  then Some "input shapes differ"
  else
    match Infer.infer_opt spec, Infer.infer_opt g with
    | None, _ | _, None -> Some "shape inference failed"
    | Some _, Some _ ->
        let out_s = Infer.output_shapes spec
        and out_g = Infer.output_shapes g in
        if List.length out_s <> List.length out_g then
          Some "different number of outputs"
        else if not (List.for_all2 Shape.equal out_s out_g) then
          Some "output shapes differ"
        else None

(* Raw trial sampling, shared by both representations: the root of unity
   and every input component are drawn from one [Random.State] in a fixed
   order (vp then vq per element, row-major, inputs in graph order), so
   the packed and boxed paths see exactly the same field values. *)
let sample_raw ~p ~q ~trial_seed shapes =
  let st = Random.State.make [| trial_seed |] in
  let omega = Zmod.random_root_of_unity ~p ~q st in
  let raw =
    List.map
      (fun shape ->
        let n = Shape.numel shape in
        let vps = Array.make n 0 and vqs = Array.make n 0 in
        for i = 0 to n - 1 do
          vps.(i) <- Random.State.int st p;
          vqs.(i) <- Random.State.int st q
        done;
        (shape, vps, vqs))
      shapes
  in
  (omega, raw)

(* One memoized trial: the random inputs and the *spec* outputs depend
   only on (trial_seed, spec, p, q), so they are computed once per trial
   seed and shared across every candidate of a run (tentpole part 3). *)
type entry =
  | Packed_ok of Fpacked.ctx * Fpacked.t Dense.t list * Fpacked.t Dense.t list
  | Boxed_ok of Fpair.ctx * Fpair.t Dense.t list * Fpair.t Dense.t list
  | Spec_resample  (** the spec itself hit a zero divisor at this seed *)
  | Spec_not_lax

type session = {
  s_spec : Graph.kernel_graph;
  s_p : int;
  s_q : int;
  s_fast : bool;
  s_table : (int, entry) Hashtbl.t;
  s_lock : Mutex.t;
}

let make_session ?(p = Zmod.default_p) ?(q = Zmod.default_q) ?(fast = true)
    ~spec () =
  {
    s_spec = spec;
    s_p = p;
    s_q = q;
    s_fast = fast && Fpacked.packable ~p ~q;
    s_table = Hashtbl.create 16;
    s_lock = Mutex.create ();
  }

let session_fast s = s.s_fast

let compute_entry ~fast ~p ~q ~trial_seed ~spec =
  let omega, raw = sample_raw ~p ~q ~trial_seed (Graph.input_shapes spec) in
  if fast then begin
    let ctx = Fpacked.make_ctx ~p ~q ~omega () in
    let inputs =
      List.map
        (fun (shape, vps, vqs) ->
          Dense.create shape
            (Array.init (Array.length vps) (fun i ->
                 Fpacked.pack vps.(i) vqs.(i))))
        raw
    in
    match Interp.eval_kernel (packed_ops ~p ~q ~trial_seed ctx) spec ~inputs with
    | outs -> Packed_ok (ctx, inputs, outs)
    | exception Zmod.Division_by_zero -> Spec_resample
    | exception Fpair.Not_lax -> Spec_not_lax
  end
  else begin
    let ctx = Fpair.make_ctx ~p ~q ~omega () in
    let inputs =
      List.map
        (fun (shape, vps, vqs) ->
          Dense.create shape
            (Array.init (Array.length vps) (fun i ->
                 { Fpair.vp = vps.(i); vq = Some vqs.(i) })))
        raw
    in
    match Interp.eval_kernel (field_ops ~p ~q ~trial_seed ctx) spec ~inputs with
    | outs -> Boxed_ok (ctx, inputs, outs)
    | exception Zmod.Division_by_zero -> Spec_resample
    | exception Fpair.Not_lax -> Spec_not_lax
  end

(* The lock is held across a miss's spec evaluation on purpose: all
   candidates of a run share trial seeds, so this guarantees the spec is
   evaluated once per seed even when verification runs across domains. *)
let session_entry session ~trial_seed =
  Mutex.lock session.s_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock session.s_lock)
    (fun () ->
      match Hashtbl.find_opt session.s_table trial_seed with
      | Some e ->
          Obs.Metrics.bump (Lazy.force Vm.spec_cache_hits);
          e
      | None ->
          Obs.Metrics.bump (Lazy.force Vm.spec_cache_misses);
          let e =
            compute_entry ~fast:session.s_fast ~p:session.s_p ~q:session.s_q
              ~trial_seed ~spec:session.s_spec
          in
          Hashtbl.add session.s_table trial_seed e;
          e)

let not_lax_msg = "exponentiation applied twice along a path at run time"

let one_trial ~session ~trial_seed g =
  let p = session.s_p and q = session.s_q in
  match session_entry session ~trial_seed with
  | Spec_resample -> raise Resample
  | Spec_not_lax -> Error not_lax_msg
  | Packed_ok (ctx, inputs, out_s) -> (
      match Interp.eval_kernel (packed_ops ~p ~q ~trial_seed ctx) g ~inputs with
      | out_g ->
          if List.for_all2 (Dense.equal Fpacked.equal) out_s out_g then Ok ()
          else Error "outputs differ on a random finite-field test"
      | exception Zmod.Division_by_zero -> raise Resample
      | exception Fpair.Not_lax -> Error not_lax_msg)
  | Boxed_ok (ctx, inputs, out_s) -> (
      match Interp.eval_kernel (field_ops ~p ~q ~trial_seed ctx) g ~inputs with
      | out_g ->
          if List.for_all2 (Dense.equal Fpair.equal) out_s out_g then Ok ()
          else Error "outputs differ on a random finite-field test"
      | exception Zmod.Division_by_zero -> raise Resample
      | exception Fpair.Not_lax -> Error not_lax_msg)

let timed_trial ~session ~trial_seed g =
  Obs.Metrics.bump (Lazy.force Vm.trials);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Hdr.record (Lazy.force Vm.trial_s) (Unix.gettimeofday () -. t0))
    (fun () -> one_trial ~session ~trial_seed g)

let equivalent_detailed ?(trials = 3) ?(p = Zmod.default_p)
    ?(q = Zmod.default_q) ?(seed = 0x5EED) ?(cand = -1) ?fast ?session:sess
    ~spec g =
  Obs.Fault.trip "verify";
  let session =
    match sess with Some s -> s | None -> make_session ~p ~q ?fast ~spec ()
  in
  let journal = Obs.Journal.active () in
  let t0 = Unix.gettimeofday () in
  let trials_run = ref 0 and resamples = ref 0 in
  let result =
    match interface_mismatch ~spec:session.s_spec g with
    | Some msg ->
        Obs.Metrics.bump (Lazy.force Vm.rejected_interface);
        Rejected msg
    | None -> (
        match Lax.check session.s_spec, Lax.check g with
        | Lax.Not_lax m, _ ->
            Obs.Metrics.bump (Lazy.force Vm.rejected_lax);
            Rejected ("spec not LAX: " ^ m)
        | _, Lax.Not_lax m ->
            Obs.Metrics.bump (Lazy.force Vm.rejected_lax);
            Rejected ("candidate not LAX: " ^ m)
        | Lax.Lax, Lax.Lax ->
            let rec run trial attempts =
              if trial >= trials then begin
                Obs.Metrics.bump (Lazy.force Vm.equivalent);
                Equivalent
              end
              else if attempts > 50 then begin
                Obs.Metrics.bump (Lazy.force Vm.rejected_resample);
                Rejected "too many zero-divisor resamples"
              end
              else
                let trial_seed = seed + (trial * 7919) + (attempts * 104729) in
                incr trials_run;
                match timed_trial ~session ~trial_seed g with
                | Ok () -> run (trial + 1) 0
                | Error msg ->
                    Obs.Log.debug (fun m ->
                        m "verify: candidate refuted on trial %d: %s" trial msg);
                    Obs.Metrics.bump (Lazy.force Vm.not_equivalent);
                    Not_equivalent msg
                | exception Resample ->
                    Obs.Metrics.bump (Lazy.force Vm.resamples);
                    incr resamples;
                    run trial (attempts + 1)
            in
            run 0 0)
  in
  (match journal with
  | None -> ()
  | Some j ->
      let verdict, detail =
        match result with
        | Equivalent -> ("equivalent", "")
        | Not_equivalent m -> ("not_equivalent", m)
        | Rejected m -> ("rejected", m)
      in
      Obs.Journal.emit j ~cand ~typ:"verify.verdict"
        ([
           ("verdict", Obs.Jsonw.Str verdict);
           ("trials_requested", Obs.Jsonw.Int trials);
           ("trials_run", Obs.Jsonw.Int !trials_run);
           ("resamples", Obs.Jsonw.Int !resamples);
           ("elapsed_s", Obs.Jsonw.Float (Unix.gettimeofday () -. t0));
         ]
        @ if detail = "" then [] else [ ("detail", Obs.Jsonw.Str detail) ]));
  { result; trials_run = !trials_run; resamples = !resamples }

let equivalent ?trials ?p ?q ?seed ?cand ?fast ?session ~spec g =
  (equivalent_detailed ?trials ?p ?q ?seed ?cand ?fast ?session ~spec g).result

let error_bound ~k ~trials =
  let k = max 1 k in
  (1.0 -. (1.0 /. float_of_int k)) ** float_of_int trials

let trials_for ~k ~delta =
  let k = max 1 k in
  if k = 1 || delta >= 1.0 then 1
  else
    let per = Stdlib.log (1.0 -. (1.0 /. float_of_int k)) in
    max 1 (int_of_float (Float.ceil (Stdlib.log delta /. per)))

let to_string = function
  | Equivalent -> "equivalent"
  | Not_equivalent m -> "NOT equivalent: " ^ m
  | Rejected m -> "rejected: " ^ m
