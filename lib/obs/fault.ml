(* Fault injection for chaos testing: named probe points in the
   enumerators, verifier, ILP solver, journal writer and report
   finalizer call [trip], and an armed point raises [Injected] so the
   surrounding quarantine/degradation machinery can be exercised on
   demand.

   Armed from the environment ([MIRAGE_FAULT=point:rate[:count]],
   comma-separated for several points) or programmatically ([configure],
   used by the chaos test suite). Firing decisions are deterministic —
   a hash of the point name and its call ordinal, not a global RNG — so
   a failing chaos run replays exactly. *)

exception Injected of string

type point = {
  name : string;
  rate : float;  (* firing probability per trip, 0..1 *)
  remaining : int Atomic.t;  (* max_int = unlimited *)
  calls : int Atomic.t;
  fired : int Atomic.t;
}

(* The documented probe points (README table). [trip] accepts any name,
   so new call sites need no registration here. *)
let known_points =
  [
    "enum.block";
    "enum.kernel";
    "verify";
    "ilp";
    "journal.write";
    "report.finalize";
    "serve.slow";
    "serve.search";
    "wire.torn";
    "wire.disconnect";
    "wire.oversize";
    "cache.enospc";
  ]

let installed : point list Atomic.t = Atomic.make []

let c_injected =
  lazy
    (Metrics.counter (Metrics.default ())
       ~help:"faults injected by the MIRAGE_FAULT harness" "fault.injected")

let parse_one s =
  match String.split_on_char ':' (String.trim s) with
  | "" :: _ ->
      Error (Printf.sprintf "bad fault spec %S (empty point name)" s)
  | [ name; rate ] | [ name; rate; "" ] -> (
      match float_of_string_opt rate with
      | Some r when r >= 0.0 && r <= 1.0 ->
          Ok
            {
              name;
              rate = r;
              remaining = Atomic.make max_int;
              calls = Atomic.make 0;
              fired = Atomic.make 0;
            }
      | _ -> Error (Printf.sprintf "bad rate %S (want a float in [0,1])" rate))
  | [ name; rate; count ] -> (
      match (float_of_string_opt rate, int_of_string_opt count) with
      | Some r, Some c when r >= 0.0 && r <= 1.0 && c >= 1 ->
          Ok
            {
              name;
              rate = r;
              remaining = Atomic.make c;
              calls = Atomic.make 0;
              fired = Atomic.make 0;
            }
      | _ ->
          Error
            (Printf.sprintf "bad rate/count %S:%S (want rate in [0,1], count >= 0)"
               rate count))
  | _ ->
      Error
        (Printf.sprintf "bad fault spec %S (want point:rate[:count])" s)

let parse_points spec =
  if String.trim spec = "" then Ok []
  else
    let parts = String.split_on_char ',' spec in
    List.fold_left
      (fun acc part ->
        match (acc, parse_one part) with
        | Ok ps, Ok p -> Ok (ps @ [ p ])
        | (Error _ as e), _ -> e
        | _, (Error _ as e) -> e)
      (Ok []) parts

let parse spec = Result.map (fun _ -> ()) (parse_points spec)

let configure spec =
  match parse_points spec with
  | Ok ps ->
      Atomic.set installed ps;
      Ok ()
  | Error _ as e -> e

let clear () = Atomic.set installed []

(* Environment arming happens once, lazily, so tests that [configure]
   before any trip are unaffected by a leftover MIRAGE_FAULT. The
   enumerators trip a probe at every prefix on every worker, so the
   loaded case is a plain read: only a caller that still sees [false]
   writes the flag's cache line. *)
let env_loaded = Atomic.make false

let load_env () =
  if (not (Atomic.get env_loaded)) && not (Atomic.exchange env_loaded true)
  then
    match Sys.getenv_opt "MIRAGE_FAULT" with
    | None | Some "" -> ()
    | Some spec -> (
        match parse_points spec with
        | Ok ps -> Atomic.set installed ps
        | Error msg ->
            Log.warn (fun m -> m "MIRAGE_FAULT ignored: %s" msg))

let should_fire p =
  let n = Atomic.fetch_and_add p.calls 1 in
  let hit =
    if p.rate >= 1.0 then true
    else if p.rate <= 0.0 then false
    else
      let h = Hashtbl.hash (p.name, n, 0x5EED) land 0xFFFF in
      float_of_int h /. 65536.0 < p.rate
  in
  hit
  &&
  (* consume one shot; unlimited points sit at max_int and never run dry *)
  let rec take () =
    let left = Atomic.get p.remaining in
    if left <= 0 then false
    else if left = max_int then true
    else if Atomic.compare_and_set p.remaining left (left - 1) then true
    else take ()
  in
  take ()

let armed () =
  load_env ();
  Atomic.get installed <> []

let trip name =
  load_env ();
  match Atomic.get installed with
  | [] -> ()
  | ps -> (
      match List.find_opt (fun p -> p.name = name) ps with
      | None -> ()
      | Some p ->
          if should_fire p then begin
            Atomic.incr p.fired;
            Metrics.bump (Lazy.force c_injected);
            Log.warn (fun m -> m "fault injected at %s" name);
            raise (Injected name)
          end)

let fired () =
  Atomic.get installed
  |> List.filter_map (fun p ->
         let n = Atomic.get p.fired in
         if n > 0 then Some (p.name, n) else None)
