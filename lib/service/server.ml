(* The optimization service daemon.

   A Unix-domain-socket server speaking the length-prefixed JSON
   protocol of {!Proto}. Each accepted connection carries one request:

     {"op":"optimize", "benchmark":"rmsnorm"}        — or "graph": <json>
     {"op":"status"} | {"op":"metrics"} | {"op":"shutdown"}

   An optimize request is resolved to a specification graph, its
   {!Fingerprint} is computed, and then:

   - cache hit  → the stored result is returned verbatim (after its
     graph is re-decoded; a semantically corrupt entry is quarantined
     and the request falls through to a fresh search);
   - cache miss → the request joins the single-flight table. The first
     requester of a fingerprint leads: it posts the §4 search (under a
     budget) to one of [max_concurrent_searches] search slots, which
     are long-lived domains, each started at its slot's first search;
     the search fans out over [num_workers] lanes, the slot's domain
     being lane 0. The flight is the one rendezvous of a miss: the
     slot's job puts a final result in the cache's memory tier, settles
     the flight, then writes the result durably, and takes no other
     search until it is on disk; the leader and every concurrent
     identical request wait on the flight through the same [await].
     Exactly one search runs per distinct in-flight fingerprint,
     however many clients ask. [stop]/[wait] join the slot domains
     after that write, so a stopped daemon leaves its answers on disk,
     and a degraded payload is never stored.

   The daemon is armored against overload and hostile peers
   ({!Admit}, {!Proto}):

   - connections beyond the live-connection bound and searches beyond
     the queue-depth bound are answered with a typed "overloaded"
     carrying retry_after_s, never a hang or a raw disconnect;
   - every frame read/write is deadline-guarded: a slowloris client
     (partial frame, then silence) is disconnected after the frame
     timeout and its handler thread reclaimed — handler threads are
     reaped as their connections close, not accumulated until wait;
   - a client-supplied ["deadline_ms"] caps the whole request: queue
     wait, the search budget, and a coalesced follower's wait are all
     bounded by it, and a request whose deadline has passed before its
     answer is ready is answered a typed "timeout", leader and follower
     alike;
   - a shutdown request may carry ["drain_s"]: stop accepting, let
     in-flight searches finish for that long, then cancel their
     budgets so they wind down with best-so-far results.

   Request lifecycle is journaled through the global {!Obs.Journal}
   (request.recv / cache.hit / cache.miss / search.start / search.done /
   request.done, plus admit.reject and conn.timeout for shed load), so
   "how many searches did N identical concurrent requests cost?" is
   answerable from the flight record — the concurrency stress test
   asserts exactly one search.start. *)

module J = Obs.Jsonw

(* --- the one wait -------------------------------------------------------- *)

(* Every wait in the daemon: [ready ()], called under [m], once it is
   [Some], or [None] once [deadline] (absolute; 0. = none) has passed.
   An unbounded wait blocks on [c], so whoever changes what [ready]
   reads must broadcast [c]. OCaml's Condition has no timed wait, so a
   bounded one polls in 5 ms slices, which is noise next to search
   times. *)
let await m c ~deadline ready =
  let rec go () =
    if deadline > 0.0 && Unix.gettimeofday () >= deadline then None
    else
      match ready () with
      | Some _ as r -> r
      | None ->
          if deadline > 0.0 then begin
            Mutex.unlock m;
            Thread.delay 0.005;
            Mutex.lock m
          end
          else Condition.wait c m;
          go ()
  in
  Mutex.protect m go

(* --- search slots -------------------------------------------------------- *)

(* [max_concurrent_searches] slots, each a long-lived domain. A leader
   takes an idle slot and posts its search there; the job settles the
   request's flight, and the leader waits on the flight like any
   follower, which releases the lock of the domain the handlers share.
   A slot's domain starts at the slot's first search and runs every
   later one: a fresh domain per search page-faults in a new minor heap
   each time. A job returns the slot to the idle list when it ends,
   after the write it makes once it has settled the flight, so the next
   search on a slot never waits behind the last one's write. *)
module Slots = struct
  type slot = {
    m : Mutex.t;
    c : Condition.t;
    mutable job : (unit -> unit) option;  (* posted, not yet taken *)
    mutable quit : bool;
    mutable dom : unit Domain.t option;
        (* read and set only by whoever holds the slot *)
  }

  type t = {
    pm : Mutex.t;
    pc : Condition.t;
    mutable idle : slot list;
    all : slot list;
  }

  let create n =
    let all =
      List.init (max 1 n) (fun _ ->
          {
            m = Mutex.create ();
            c = Condition.create ();
            job = None;
            quit = false;
            dom = None;
          })
    in
    { pm = Mutex.create (); pc = Condition.create (); idle = all; all }

  (* An idle slot, or None when [deadline] passed first: an expired
     deadline never takes a slot, since the caller owes its client a
     typed timeout, not a search. *)
  let acquire p ~deadline =
    await p.pm p.pc ~deadline (fun () ->
        match p.idle with
        | s :: rest ->
            p.idle <- rest;
            Some s
        | [] -> None)

  (* broadcast: [each] waits for one slot in particular *)
  let release p s =
    Mutex.lock p.pm;
    p.idle <- s :: p.idle;
    Condition.broadcast p.pc;
    Mutex.unlock p.pm

  let rec serve s =
    let next () =
      match s.job with
      | Some f ->
          s.job <- None;
          Some (`Run f)
      | None -> if s.quit then Some `Quit else None
    in
    match await s.m s.c ~deadline:0.0 next with
    | Some (`Run f) ->
        f ();
        serve s
    | Some `Quit | None -> ()

  (* Run [f] on the held slot [s]'s domain, starting the domain at the
     slot's first job; the slot is released when [f] returns. [f] must
     not raise: it reports to its poster. *)
  let post p s f =
    (if s.dom = None then
       try s.dom <- Some (Domain.spawn (fun () -> serve s))
       with e ->
         release p s;
         raise e);
    let job () =
      (try f ()
       with e ->
         Obs.Log.warn (fun m ->
             m "service: a search slot's job raised: %s" (Printexc.to_string e)));
      release p s
    in
    Mutex.lock s.m;
    s.job <- Some job;
    Condition.signal s.c;
    Mutex.unlock s.m

  (* Take each slot in turn as a search would, so that a search under
     way on it ends, writes included, run [f] on it and release it. *)
  let each p f =
    List.iter
      (fun s ->
        ignore
          (await p.pm p.pc ~deadline:0.0 (fun () ->
               if List.memq s p.idle then begin
                 p.idle <- List.filter (fun s' -> s' != s) p.idle;
                 Some ()
               end
               else None));
        Fun.protect ~finally:(fun () -> release p s) (fun () -> f s))
      p.all

  (* Join every slot's domain; a later search starts the slot afresh. *)
  let retire p =
    each p (fun s ->
        match s.dom with
        | None -> ()
        | Some d ->
            Mutex.lock s.m;
            s.quit <- true;
            Condition.signal s.c;
            Mutex.unlock s.m;
            (try Domain.join d with _ -> ());
            s.dom <- None;
            s.quit <- false)
end

(* --- typed request rejections ----------------------------------------- *)

(* Every failure a request can be answered with is typed: the response
   carries ["error"] (the kind a client switches on) and, for loadshed
   kinds, ["retry_after_s"] (when it is worth coming back). *)
type reject = {
  r_kind : string;
  r_retry_after_s : float option;
  r_msg : string;
}

let bad_request msg = { r_kind = "bad_request"; r_retry_after_s = None; r_msg = msg }
let internal msg = { r_kind = "internal"; r_retry_after_s = None; r_msg = msg }
let timeout_reject msg = { r_kind = "timeout"; r_retry_after_s = None; r_msg = msg }

let of_admit (r : Admit.rejection) =
  {
    r_kind = r.Admit.kind;
    r_retry_after_s = Some r.Admit.retry_after_s;
    r_msg = r.Admit.detail;
  }

let error_json r =
  J.Obj
    ([
       ("status", J.Str "error");
       ("error", J.Str r.r_kind);
       ("message", J.Str r.r_msg);
     ]
    @
    match r.r_retry_after_s with
    | Some s -> [ ("retry_after_s", J.Float s) ]
    | None -> [])

(* --- single-flight table --------------------------------------------- *)

type outcome = Done of J.t | Failed of reject

type flight = {
  fm : Mutex.t;
  fc : Condition.t;
  leader_rid : string;  (* the request id whose search everyone shares *)
  mutable result : outcome option;  (* None while the search runs *)
  fprogress : Search.Progress.t;
      (* live search state, sampled lock-free by every streamer of this
         flight (the leader's and each coalesced follower's) *)
  fbudget : Search.Budget.t option Atomic.t;
      (* the search's budget, published by [run_search] once the search
         actually starts (after the slot wait), so streamed
         budget-remaining reflects search time, not queue time — and so
         a draining shutdown can cancel it *)
}

type t = {
  socket_path : string;
  cache : Cache.t;
  device : Gpusim.Device.t;
  base_config : Search.Config.t;
  slots : Slots.t;
  admit : Admit.t;
  frame_timeout_s : float;  (* 0 = unlimited *)
  idle_timeout_s : float;  (* 0 = unlimited *)
  lock : Mutex.t;  (* guards flights, handlers, counters *)
  flights : (string, flight) Hashtbl.t;
  handlers : (int, Thread.t) Hashtbl.t;
  mutable next_handler : int;
  mutable listener : Unix.file_descr option;
  mutable accept_thread : Thread.t option;
  mutable drainer : Thread.t option;
  stop_flag : bool Atomic.t;
  started_at : float;
  c_requests : Obs.Metrics.counter;
  c_searches : Obs.Metrics.counter;
  c_coalesced : Obs.Metrics.counter;
  c_errors : Obs.Metrics.counter;
  c_wire_timeout : Obs.Metrics.counter;
  c_wire_torn : Obs.Metrics.counter;
  telemetry : Telemetry.t;
}

let payload_schema = "mirage.service.payload.v1"

(* Finite-field trials per candidate, and the back-off hint on an
   "overloaded" answer. *)
let verify_trials = 2
let retry_after_s = 0.5

let create ?(mem_capacity = 64) ?(registry = Obs.Metrics.default ())
    ?(device = Gpusim.Device.a100) ?(base_config = Search.Config.default)
    ?(max_concurrent_searches = 2) ?(max_connections = 64)
    ?(max_queue_depth = 64) ?(frame_timeout_s = 10.0)
    ?(idle_timeout_s = 30.0) ?(cache_max_bytes = 0) ~socket_path ~cache_dir
    () =
  let c name help = Obs.Metrics.counter registry ~help name in
  (* Searches run on slot domains of their own (see [Slots]), and two
     domains forcing one lazy metric handle at once fail: force the
     verifier's here, before any search starts. *)
  Verify.Random_test.warm ();
  {
    socket_path;
    cache =
      Cache.create ~mem_capacity ~registry ~max_disk_bytes:cache_max_bytes
        ~dir:cache_dir ();
    device;
    base_config;
    slots = Slots.create max_concurrent_searches;
    admit =
      Admit.create ~registry ~max_connections ~max_queue_depth ~retry_after_s
        ();
    frame_timeout_s;
    idle_timeout_s;
    lock = Mutex.create ();
    flights = Hashtbl.create 16;
    handlers = Hashtbl.create 64;
    next_handler = 0;
    listener = None;
    accept_thread = None;
    drainer = None;
    stop_flag = Atomic.make false;
    started_at = Unix.gettimeofday ();
    c_requests = c "service.requests" "requests received";
    c_searches = c "service.searches" "searches actually run";
    c_coalesced =
      c "service.coalesced" "requests served by another request's search";
    c_errors = c "service.errors" "requests answered with an error";
    c_wire_timeout =
      c "service.wire.timeout"
        "connections dropped by a frame or idle deadline";
    c_wire_torn = c "service.wire.torn" "connections that died mid-frame";
    telemetry = Telemetry.create ~registry ();
  }

let telemetry t = t.telemetry
let admit t = t.admit

let cache t = t.cache

(* frame timeouts as Proto optional arguments: 0 disables *)
let frame_tmo t = if t.frame_timeout_s > 0.0 then Some t.frame_timeout_s else None
let idle_tmo t = if t.idle_timeout_s > 0.0 then Some t.idle_timeout_s else None

(* --- request parsing -------------------------------------------------- *)

let str_field k j =
  match J.member k j with Some (J.Str s) -> Some s | _ -> None

let int_field k j =
  match J.member k j with Some (J.Int i) -> Some i | _ -> None

let float_field k j =
  match J.member k j with
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

(* The per-request search config: the server's base config with the
   request's optional overrides applied, then specialized to the spec by
   [Config.for_spec] (operator menus from the goal expressions, grids
   and loops from the input dimensions) — the same derivation
   [mirage_cli optimize] uses, so a service answer and a direct run are
   comparable bit for bit. A client may ask for at most
   [Config.default_workers] lanes, and its ["budget_s"] may only tighten
   the operator's budget: out-of-range values are a [bad_request]. *)
let request_config t req spec =
  let base = t.base_config in
  let base =
    match int_field "max_block_ops" req with
    | Some n -> { base with Search.Config.max_block_ops = n }
    | None -> base
  in
  match (int_field "workers" req, float_field "budget_s" req) with
  | Some n, _ when n < 1 || n > Search.Config.default_workers ->
      Error
        (Printf.sprintf "workers %d is outside 1 .. %d" n
           Search.Config.default_workers)
  | _, Some s when not (Float.is_finite s && s > 0.0) ->
      Error (Printf.sprintf "budget_s %g is not a positive number" s)
  | workers, budget ->
      let base =
        match workers with
        | Some n -> { base with Search.Config.num_workers = n }
        | None -> base
      in
      let base =
        match budget with
        | Some s ->
            let own = base.Search.Config.time_budget_s in
            {
              base with
              Search.Config.time_budget_s =
                (if own > 0.0 then Float.min own s else s);
            }
        | None -> base
      in
      Ok (Search.Config.for_spec ~base spec)

(* An end-to-end deadline caps the search's wall budget: the flight must
   answer by [deadline], so the search may use at most what remains, and
   a deadline already passed leaves nothing to search in ([None]).
   time_budget_s is fingerprint-irrelevant (Config.result_irrelevant_keys),
   so the cap never forks the cache key. *)
let cap_config_to_deadline config ~deadline =
  if deadline <= 0.0 then Some config
  else
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then None
    else
      let budget = config.Search.Config.time_budget_s in
      Some
        {
          config with
          Search.Config.time_budget_s =
            (if budget <= 0.0 then remaining else Float.min budget remaining);
        }

let resolve_spec req =
  match (str_field "benchmark" req, J.member "graph" req) with
  | Some name, _ -> (
      match Workloads.Bench_defs.by_name name with
      | Some b ->
          let spec, _ = b.Workloads.Bench_defs.reduced () in
          Ok (Some name, spec)
      | None -> Error (Printf.sprintf "unknown benchmark %S" name))
  | None, Some gj -> (
      match Search.Checkpoint.graph_of_json gj with
      | Ok g -> Ok (None, g)
      | Error m -> Error (Printf.sprintf "bad graph: %s" m))
  | None, None -> Error "optimize needs a \"benchmark\" or a \"graph\" field"

let resolve_device t req =
  match str_field "device" req with
  | None -> Ok t.device
  | Some name -> (
      match Gpusim.Device.by_name name with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "unknown device %S" name))

(* --- the search ------------------------------------------------------- *)

let result_payload ~benchmark ~(device : Gpusim.Device.t) ~spec
    (o : Search.Generator.outcome) ~wall_s =
  let best =
    match o.Search.Generator.best with
    | Some b -> b
    | None ->
        (* unreachable: the spec itself always participates *)
        {
          Search.Generator.graph = spec;
          cost = Gpusim.Cost.cost device spec;
        }
  in
  let spec_us = (Gpusim.Cost.cost device spec).Gpusim.Cost.total_us in
  let best_us = best.Search.Generator.cost.Gpusim.Cost.total_us in
  J.Obj
    [
      ("schema", J.Str payload_schema);
      ( "benchmark",
        match benchmark with Some n -> J.Str n | None -> J.Null );
      ("device", J.Str device.Gpusim.Device.name);
      ( "best",
        J.Obj
          [
            ( "graph",
              Search.Checkpoint.graph_to_json best.Search.Generator.graph );
            ("cost", Gpusim.Cost.to_json best.Search.Generator.cost);
          ] );
      ("spec_us", J.Float spec_us);
      ("optimized_us", J.Float best_us);
      ("speedup", J.Float (if best_us > 0.0 then spec_us /. best_us else 1.0));
      ("generated", J.Int o.Search.Generator.generated);
      ("verified", J.Int o.Search.Generator.stats.Search.Stats.verified);
      ("budget_exhausted", J.Bool o.Search.Generator.budget_exhausted);
      ( "degraded",
        J.List (List.map (fun s -> J.Str s) o.Search.Generator.degraded) );
      ("search_wall_s", J.Float wall_s);
    ]

(* Only a search that ran to completion answers every later request for
   its fingerprint, which excludes budget and deadline: a degraded or
   budget-cut payload is served to its own request and its single-flight
   followers, never stored. *)
let payload_final payload =
  (match J.member "degraded" payload with
  | Some (J.List (_ :: _)) -> false
  | _ -> true)
  && J.member "budget_exhausted" payload <> Some (J.Bool true)

(* A cached payload is only served if its best graph still decodes and
   validates; a payload that lies about its graph is quarantined and the
   request re-searches. *)
let payload_valid payload =
  match
    Option.bind (J.member "best" payload) (fun b -> J.member "graph" b)
  with
  | None -> Error "payload has no best.graph"
  | Some gj -> (
      match Search.Checkpoint.graph_of_json gj with
      | Ok _ -> Ok ()
      | Error m -> Error (Printf.sprintf "best.graph does not decode: %s" m))

(* Publish a flight's outcome and retire it from the table: later
   requests for the same fingerprint hit the cache (or start afresh)
   instead. The flight leaves the table before anyone can wake on its
   outcome, so a request that has its answer never sees its flight. *)
let settle_flight t fp flight outcome =
  Mutex.protect t.lock (fun () -> Hashtbl.remove t.flights fp);
  Mutex.protect flight.fm (fun () ->
      flight.result <- Some outcome;
      Condition.broadcast flight.fc)

let search_failed e =
  Failed (internal (Printf.sprintf "search failed: %s" (Printexc.to_string e)))

(* Post the search to the held slot. The slot's job runs under the
   request's journal context and profile base, and settles the flight:
   it runs the search, puts a final payload in the memory tier, settles
   the flight with the payload (or what the search raised), and only
   then writes a final payload durably. A read that comes meanwhile is
   a hit from the memory tier. *)
let run_search t slot ~config ~device ~benchmark ~spec ~fp ~flight =
  Obs.Metrics.bump t.c_searches;
  let budget = Search.Budget.of_config config in
  Atomic.set flight.fbudget (Some budget);
  let under = Search.Generator.capture () in
  let search () =
    Obs.Journal.event "search.start"
      [
        ("fingerprint", J.Str fp);
        ( "benchmark",
          match benchmark with Some n -> J.Str n | None -> J.Null );
      ];
    Obs.Fault.trip "serve.search";
    let t0 = Unix.gettimeofday () in
    let o =
      Search.Generator.run ~config ~verify_trials ~budget
        ~progress:flight.fprogress ~device ~spec ()
    in
    (* The search counted into its own registry; its totals join the
       daemon's before the request is answered. *)
    Obs.Metrics.absorb (Telemetry.registry t.telemetry)
      o.Search.Generator.metrics;
    let wall_s = Unix.gettimeofday () -. t0 in
    let payload = result_payload ~benchmark ~device ~spec o ~wall_s in
    Obs.Journal.event "search.done"
      [
        ("fingerprint", J.Str fp);
        ("wall_s", J.Float wall_s);
        ("generated", J.Int o.Search.Generator.generated);
        ( "optimized_us",
          match J.member "optimized_us" payload with
          | Some v -> v
          | None -> J.Null );
      ];
    if payload_final payload then Cache.remember t.cache fp payload;
    payload
  in
  Slots.post t.slots slot (fun () ->
      under (fun () ->
          match search () with
          | payload ->
              settle_flight t fp flight (Done payload);
              if payload_final payload then Cache.store t.cache fp payload
          | exception e -> settle_flight t fp flight (search_failed e)))

(* The leader's part of a miss: admit its search into the bounded slot
   queue (followers ride its slot and never count against the queue
   depth), take a slot and post the search there, whose job settles the
   flight. Whatever stops the leader first settles the flight here.
   Returns the time the search was posted, if it was. *)
let lead t ~sample ~deadline ~config ~device ~benchmark ~spec ~fp flight =
  let fail outcome =
    settle_flight t fp flight outcome;
    None
  in
  match Admit.try_queue t.admit with
  | Admit.Rejected r -> fail (Failed (of_admit r))
  | Admit.Admitted -> (
      match
        Telemetry.time_stage sample "queue_wait" (fun () ->
            Fun.protect
              ~finally:(fun () -> Admit.queue_done t.admit)
              (fun () -> Slots.acquire t.slots ~deadline))
      with
      | None ->
          fail
            (Failed
               (timeout_reject "deadline expired while queued for a search slot"))
      | Some slot -> (
          match cap_config_to_deadline config ~deadline with
          | None ->
              Slots.release t.slots slot;
              fail
                (Failed
                   (timeout_reject "deadline expired before the search started"))
          | Some config -> (
              let t0 = Unix.gettimeofday () in
              match
                run_search t slot ~config ~device ~benchmark ~spec ~fp ~flight
              with
              | () -> Some t0
              | exception e -> fail (search_failed e))))

(* --- single flight ---------------------------------------------------- *)

(* The chaos hooks for request latency: when [point] is armed, an
   optimize request stalls there for [MIRAGE_FAULT_SLOW_MS] (default
   250) instead of raising. [serve.slow] stalls before any cache probe
   or search, so a test can expire a client's deadline
   deterministically; [serve.join] stalls between a missed probe and
   the flight lookup, so a test can let another request's search finish
   in between. *)
let stall point =
  try Obs.Fault.trip point
  with Obs.Fault.Injected _ ->
    let ms =
      match Sys.getenv_opt "MIRAGE_FAULT_SLOW_MS" with
      | Some s -> ( try float_of_string s with _ -> 250.0)
      | None -> 250.0
    in
    Unix.sleepf (ms /. 1e3)

(* Progress streaming: while [f] (the search, or the coalesced wait on
   it) runs, a dedicated thread samples the flight's live progress cell
   every [interval_s] and hands rid-tagged frames to [push]. The first
   frame is emitted before the stop flag is ever consulted, so an
   opted-in request sees at least one frame even when the search
   finishes instantly. The thread is joined before this function
   returns: frame writes and the final response write are strictly
   sequential on the connection, never interleaved. *)
let stream_progress ~rid ~interval_s ~push flight f =
  match push with
  | None -> f ()
  | Some push ->
      let stop = Atomic.make false in
      let t0 = Unix.gettimeofday () in
      let seq = ref 0 in
      let emit () =
        let v = Search.Progress.view flight.fprogress in
        let budget_remaining_s =
          match Atomic.get flight.fbudget with
          | Some b ->
              let dl = Search.Budget.deadline b in
              if dl > 0.0 then Some (Float.max 0.0 (dl -. Unix.gettimeofday ()))
              else None
          | None -> None
        in
        let frame =
          Proto.progress_frame ~rid ~seq:!seq
            ~phase:v.Search.Progress.v_phase
            ~nodes_expanded:v.Search.Progress.v_nodes_expanded
            ~candidates:v.Search.Progress.v_candidates
            ~verified:v.Search.Progress.v_verified
            ~tasks_stolen:v.Search.Progress.v_tasks_stolen
            ?best_cost_us:v.Search.Progress.v_best_us ?budget_remaining_s
            ~elapsed_s:(Unix.gettimeofday () -. t0) ()
        in
        incr seq;
        (* a vanished client only stops the stream; the search is shared
           with other requests and runs on *)
        try push frame with _ -> Atomic.set stop true
      in
      let streamer () =
        emit ();
        while not (Atomic.get stop) do
          (* nap in short slices so the final join is prompt *)
          let slept = ref 0.0 in
          while (not (Atomic.get stop)) && !slept < interval_s do
            Unix.sleepf 0.02;
            slept := !slept +. 0.02
          done;
          if not (Atomic.get stop) then emit ()
        done
      in
      let th = Thread.create streamer () in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Thread.join th)
        f

(* Returns (fingerprint, payload, cached, coalesced, served_by): the
   sample accumulates stage timings (cache probe, queue wait, search)
   and [served_by] is the leader's request id when this request was
   coalesced onto another's search. [push], when present, streams
   rid-tagged progress frames to this request's connection while its
   search (own or joined) is in flight; cache hits stream nothing.
   [deadline] (absolute epoch seconds; 0. = none) bounds the queue
   wait, the search budget, and a follower's wait. *)
let optimize t ~rid ~(sample : Telemetry.sample) ?push ?(interval_s = 0.1)
    ?(deadline = 0.0) req =
  match resolve_spec req with
  | Error m -> Error (bad_request m)
  | Ok (benchmark, spec) -> (
      match (resolve_device t req, request_config t req spec) with
      | Error m, _ | _, Error m -> Error (bad_request m)
      | Ok device, Ok config -> (
          stall "serve.slow";
          let fp = Fingerprint.make ~device ~config spec in
          let serve_cached payload =
            match payload_valid payload with
            | Ok () ->
                Obs.Journal.event "cache.hit" [ ("fingerprint", J.Str fp) ];
                Some payload
            | Error reason ->
                Cache.quarantine t.cache fp ~reason;
                None
          in
          (* join or create the flight for this fingerprint. A leader
             may have remembered its result and settled its flight since
             the probe missed: with no flight to join, the memory tier is
             probed again under the lock (no disk read) before this
             request leads a second search. The [cache.miss] event waits
             until after, since a journal write here widens that
             window. *)
          let rec join () =
            match
              Mutex.protect t.lock (fun () ->
                  match Hashtbl.find_opt t.flights fp with
                  | Some fl -> `Flight (fl, false)
                  | None -> (
                      match Cache.find_mem t.cache fp with
                      | Some payload -> `Hit payload
                      | None ->
                          let fl =
                            {
                              fm = Mutex.create ();
                              fc = Condition.create ();
                              leader_rid = rid;
                              result = None;
                              fprogress = Search.Progress.create ();
                              fbudget = Atomic.make None;
                            }
                          in
                          Hashtbl.replace t.flights fp fl;
                          `Flight (fl, true)))
            with
            | `Hit payload -> (
                match serve_cached payload with
                | Some payload -> `Hit payload
                | None -> join ())
            | found -> found
          in
          let found =
            match
              Telemetry.time_stage sample "cache_probe" (fun () ->
                  Option.bind (Cache.find t.cache fp) serve_cached)
            with
            | Some payload -> `Hit payload
            | None ->
                stall "serve.join";
                join ()
          in
          match found with
          | `Hit payload ->
              Telemetry.set_outcome sample "hit";
              Ok (fp, payload, true, false, None)
          | `Flight (flight, creator) -> (
              Obs.Journal.event "cache.miss" [ ("fingerprint", J.Str fp) ];
              if not creator then begin
                Obs.Metrics.bump t.c_coalesced;
                Obs.Journal.event "request.coalesced"
                  [
                    ("fingerprint", J.Str fp);
                    ("leader_rid", J.Str flight.leader_rid);
                  ]
              end;
              (* The leader waits without a bound, so its flight is
                 retired before it answers; its search is capped to its
                 deadline. A follower must not wait past its own. *)
              let outcome =
                stream_progress ~rid ~interval_s ~push flight (fun () ->
                    let posted =
                      if creator then
                        lead t ~sample ~deadline ~config ~device ~benchmark
                          ~spec ~fp flight
                      else None
                    in
                    let outcome =
                      await flight.fm flight.fc
                        ~deadline:(if creator then 0.0 else deadline)
                        (fun () -> flight.result)
                    in
                    Option.iter
                      (fun t0 ->
                        Telemetry.add_stage sample "search"
                          (Unix.gettimeofday () -. t0))
                      posted;
                    outcome)
              in
              (* one rule for leader and followers: what the search made
                 after this request's deadline is a timeout, even when
                 the complete result was stored *)
              match outcome with
              | Some (Done _)
                when deadline > 0.0 && Unix.gettimeofday () >= deadline ->
                  Error (timeout_reject "deadline expired during the search")
              | Some (Done payload) ->
                  Telemetry.set_outcome sample
                    (if creator then "miss" else "coalesced");
                  let served_by =
                    if creator then None else Some flight.leader_rid
                  in
                  Ok (fp, payload, false, not creator, served_by)
              | Some (Failed r) -> Error r
              | None ->
                  Error
                    (timeout_reject
                       "deadline expired waiting for the in-flight search"))))

(* --- dispatch ---------------------------------------------------------- *)

let handler_count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.handlers in
  Mutex.unlock t.lock;
  n

let flight_count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.flights in
  Mutex.unlock t.lock;
  n

let hit_rate_json t =
  let snap = Obs.Metrics.snapshot (Telemetry.registry t.telemetry) in
  let hits, misses, rate = Telemetry.cache_rates snap in
  ((hits, misses), J.Float rate)

let status_json t =
  let (hits, misses), hit_rate = hit_rate_json t in
  J.Obj
    [
      ("status", J.Str "ok");
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
      ("stopping", J.Bool (Atomic.get t.stop_flag));
      ("requests", J.Int (Obs.Metrics.value t.c_requests));
      ("searches", J.Int (Obs.Metrics.value t.c_searches));
      ("coalesced", J.Int (Obs.Metrics.value t.c_coalesced));
      ("errors", J.Int (Obs.Metrics.value t.c_errors));
      ("in_flight", J.Int (handler_count t));
      ("admit", Admit.status_json t.admit);
      ( "cache",
        J.Obj
          [
            ("mem_entries", J.Int (Cache.mem_entries t.cache));
            ("disk_entries", J.Int (Cache.disk_entries t.cache));
            ("disk_bytes", J.Int (Cache.disk_bytes t.cache));
            ("mem_only", J.Bool (Cache.mem_only t.cache));
            ("hits", J.Int hits);
            ("misses", J.Int misses);
            ("hit_rate", hit_rate);
            ("dir", J.Str (Cache.dir t.cache));
          ] );
      ("device", J.Str t.device.Gpusim.Device.name);
      ("socket", J.Str t.socket_path);
    ]

(* The "metrics" op: the schema'd exposition snapshot ({!Telemetry}),
   or the Prometheus text format when the request asks for it. *)
let metrics_json t req =
  match str_field "format" req with
  | Some "prometheus" ->
      J.Obj
        [
          ("status", J.Str "ok");
          ("content_type", J.Str "text/plain; version=0.0.4");
          ("text", J.Str (Telemetry.prometheus t.telemetry));
        ]
  | _ ->
      let extra =
        [
          ("status", J.Str "ok");
          ("admit", Admit.status_json t.admit);
          ( "cache_entries",
            J.Obj
              [
                ("mem", J.Int (Cache.mem_entries t.cache));
                ("disk", J.Int (Cache.disk_entries t.cache));
                ("disk_bytes", J.Int (Cache.disk_bytes t.cache));
                ("mem_only", J.Bool (Cache.mem_only t.cache));
              ] );
        ]
      in
      Telemetry.snapshot_json ~extra t.telemetry
        ~in_flight:(handler_count t) ()

(* Closing a listening socket does not wake a thread blocked in
   accept(2) on it, so stopping takes two steps: shutdown(2) the
   listener (returns EINVAL to the blocked accept on Linux) and, as a
   portable fallback, poke it with a throwaway connection. The accept
   loop owns the close. *)
let shutdown_now t =
  Atomic.set t.stop_flag true;
  Mutex.lock t.lock;
  let listener = t.listener in
  t.listener <- None;
  Mutex.unlock t.lock;
  match listener with
  | None -> ()
  | Some fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
      (try
         let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Fun.protect
           ~finally:(fun () -> try Unix.close c with _ -> ())
           (fun () ->
             try Unix.connect c (Unix.ADDR_UNIX t.socket_path) with _ -> ())
       with _ -> ())

(* Graceful drain: stop accepting immediately; give in-flight searches
   [drain_s] seconds to land their results, then cancel the budgets of
   whatever is still running so those flights wind down with
   best-so-far answers instead of blocking shutdown forever. *)
let shutdown ?drain_s t =
  shutdown_now t;
  match drain_s with
  | None -> ()
  | Some s ->
      let th =
        Thread.create
          (fun () ->
            let deadline = Unix.gettimeofday () +. Float.max 0.0 s in
            while flight_count t > 0 && Unix.gettimeofday () < deadline do
              Thread.delay 0.02
            done;
            Mutex.lock t.lock;
            let stragglers =
              Hashtbl.fold (fun fp fl acc -> (fp, fl) :: acc) t.flights []
            in
            Mutex.unlock t.lock;
            List.iter
              (fun (fp, fl) ->
                match Atomic.get fl.fbudget with
                | Some b ->
                    Obs.Journal.event "shutdown.cancel"
                      [ ("fingerprint", J.Str fp) ];
                    Search.Budget.cancel b
                | None -> ())
              stragglers)
          ()
      in
      Mutex.lock t.lock;
      t.drainer <- Some th;
      Mutex.unlock t.lock

(* Dispatch one (rid-carrying) request, accumulating stage timings and
   the outcome into [sample]. Every journal event emitted below this
   point — including from search worker domains, which inherit the
   context — carries the rid, and the response echoes it. What raises
   is answered as a typed [internal] error. *)
let dispatch t ~rid ~(sample : Telemetry.sample) ?push req =
  Obs.Metrics.bump t.c_requests;
  let op = Telemetry.sample_op sample in
  Obs.Journal.event "request.recv" [ ("op", J.Str op) ];
  let t0 = Unix.gettimeofday () in
  let reject_resp r =
    let outcome =
      match r.r_kind with
      | ("timeout" | "overloaded") as k -> k
      | _ -> "error"
    in
    Telemetry.set_outcome sample outcome;
    Obs.Metrics.bump t.c_errors;
    error_json r
  in
  let resp =
    try
      match op with
      | "optimize" -> (
          (* progress streaming is strictly opt-in: without
             ["progress": true] the connection carries exactly one frame,
             byte-identical to the pre-progress protocol *)
          let push =
            match J.member "progress" req with
            | Some (J.Bool true) -> push
            | _ -> None
          in
          let interval_s =
            match float_field "progress_interval_ms" req with
            | Some ms when ms > 0.0 -> ms /. 1e3
            | _ -> 0.1
          in
          let deadline =
            match float_field "deadline_ms" req with
            | Some ms when ms > 0.0 -> t0 +. (ms /. 1e3)
            | _ -> 0.0
          in
          match optimize t ~rid ~sample ?push ~interval_s ~deadline req with
          | Ok (fp, payload, cached, coalesced, served_by) ->
              (match J.member "degraded" payload with
              | Some (J.List (_ :: _)) -> Telemetry.set_degraded sample
              | _ -> ());
              J.Obj
                ([
                   ("status", J.Str "ok");
                   ("fingerprint", J.Str fp);
                   ("cached", J.Bool cached);
                   ("coalesced", J.Bool coalesced);
                 ]
                @ (match served_by with
                  | Some leader -> [ ("served_by", J.Str leader) ]
                  | None -> [])
                @ [ ("result", payload) ])
          | Error r -> reject_resp r)
      | "status" -> status_json t
      | "metrics" -> metrics_json t req
      | "shutdown" ->
          let drain_s = float_field "drain_s" req in
          shutdown ?drain_s t;
          J.Obj
            ([ ("status", J.Str "ok"); ("stopping", J.Bool true) ]
            @
            match drain_s with
            | Some s -> [ ("drain_s", J.Float s) ]
            | None -> [])
      | other -> reject_resp (bad_request (Printf.sprintf "unknown op %S" other))
    with e -> reject_resp (internal (Printexc.to_string e))
  in
  let resp =
    match resp with
    | J.Obj fields when not (List.mem_assoc Reqid.field fields) ->
        J.Obj (fields @ [ (Reqid.field, J.Str rid) ])
    | r -> r
  in
  Obs.Journal.event "request.done"
    [
      ("op", J.Str op);
      ( "status",
        match J.member "status" resp with Some s -> s | None -> J.Null );
      ("wall_s", J.Float (Unix.gettimeofday () -. t0));
    ];
  resp

(* The one request path, in-process and socket alike: mint or keep the
   request id, dispatch under it, hand the answer to [reply] (the
   socket's frame write, timed as the [serialize] stage: the one cost a
   cached answer still pays), then fold the sample in. *)
let serve_request ?push ?reply t req =
  let req, rid = Reqid.ensure req in
  let op = match str_field "op" req with Some s -> s | None -> "" in
  let sample = Telemetry.start ~op in
  Obs.Journal.with_context
    [ ("rid", J.Str rid) ]
    (fun () ->
      let resp = dispatch t ~rid ~sample ?push req in
      Option.iter
        (fun reply -> Telemetry.time_stage sample "serialize" (fun () -> reply resp))
        reply;
      Telemetry.finish t.telemetry sample;
      resp)

let handle_request ?push t req = serve_request ?push t req

(* --- connection handling ----------------------------------------------- *)

let handle_conn t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      match Admit.try_conn t.admit with
      | Admit.Rejected r ->
          (* shed at the door: a typed overloaded answer, without
             reading a byte — the cheapest possible rejection *)
          (try Proto.write_frame ?timeout_s:(frame_tmo t) fd (error_json (of_admit r))
           with _ -> ())
      | Admit.Admitted -> (
          Fun.protect ~finally:(fun () -> Admit.conn_done t.admit) @@ fun () ->
          match
            Proto.read_frame ?idle_timeout_s:(idle_tmo t)
              ?timeout_s:(frame_tmo t) fd
          with
          | req ->
              let write frame =
                Proto.write_frame ?timeout_s:(frame_tmo t) fd frame
              in
              ignore
                (serve_request ~push:write
                   ~reply:(fun resp ->
                     try write resp with _ -> () (* client went away *))
                   t req)
          | exception End_of_file -> () (* clean close, no frame *)
          | exception Proto.Timed_out what ->
              (* slowloris or stalled peer: typed timeout (best effort),
                 then the connection — and this thread — are reclaimed *)
              Obs.Metrics.bump t.c_wire_timeout;
              Obs.Journal.event "conn.timeout" [ ("what", J.Str what) ];
              (try
                 Proto.write_frame ~timeout_s:1.0 fd
                   (error_json (timeout_reject (what ^ " deadline expired")))
               with _ -> ())
          | exception Proto.Protocol_error m ->
              Obs.Metrics.bump t.c_wire_torn;
              Obs.Journal.event "conn.torn" [ ("reason", J.Str m) ];
              (try
                 Proto.write_frame ~timeout_s:1.0 fd
                   (error_json
                      {
                        r_kind = "bad_frame";
                        r_retry_after_s = None;
                        r_msg = m;
                      })
               with _ -> ())
          | exception Unix.Unix_error _ -> ()))

let accept_loop t listener =
  let continue_ = ref true in
  while !continue_ do
    if Atomic.get t.stop_flag then continue_ := false
    else
      match Unix.accept listener with
      | fd, _ ->
          if Atomic.get t.stop_flag then (try Unix.close fd with _ -> ())
          else begin
            (* register under the lock, and make the handler's first
               action a lock acquire: it cannot deregister before the
               registration it pairs with has happened *)
            Mutex.lock t.lock;
            let key = t.next_handler in
            t.next_handler <- t.next_handler + 1;
            let th =
              Thread.create
                (fun () ->
                  Mutex.lock t.lock;
                  Mutex.unlock t.lock;
                  Fun.protect
                    ~finally:(fun () ->
                      (* reap: a finished handler removes itself, so
                         t.handlers tracks live connections only *)
                      Mutex.lock t.lock;
                      Hashtbl.remove t.handlers key;
                      Mutex.unlock t.lock)
                    (fun () -> handle_conn t fd))
                ()
            in
            Hashtbl.replace t.handlers key th;
            Mutex.unlock t.lock
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception _ ->
          (* listener shut down (stop) or fatal: stop accepting *)
          continue_ := false
  done;
  try Unix.close listener with _ -> ()

(* A socket file can be a live daemon or a stale leftover. Probe it:
   only a socket nobody answers is removed; a live daemon's socket is
   refused with a clear error instead of hijacked. *)
let socket_live path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception _ -> false
  | fd -> (
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
            ->
              false
          | exception _ -> false))

let start t =
  if Sys.file_exists t.socket_path then begin
    if socket_live t.socket_path then
      failwith
        (Printf.sprintf
           "socket %s: a live daemon is already listening (shut it down \
            first, or pick another --socket)"
           t.socket_path);
    Obs.Log.info (fun m ->
        m "service: removing stale socket %s (no daemon answered)"
          t.socket_path);
    Sys.remove t.socket_path
  end;
  let dir = Filename.dirname t.socket_path in
  if dir <> "" && not (Sys.file_exists dir) then
    (try Unix.mkdir dir 0o755 with _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX t.socket_path);
  Unix.listen listener 64;
  Mutex.lock t.lock;
  t.listener <- Some listener;
  Mutex.unlock t.lock;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t listener) ());
  Obs.Log.info (fun m ->
      m "service: listening on %s (cache %s, device %s)" t.socket_path
        (Cache.dir t.cache) t.device.Gpusim.Device.name)

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  t.accept_thread <- None;
  let self = Thread.id (Thread.self ()) in
  let rec drain () =
    Mutex.lock t.lock;
    let hs = Hashtbl.fold (fun _ th acc -> th :: acc) t.handlers [] in
    Mutex.unlock t.lock;
    match hs with
    | [] -> ()
    | _ ->
        List.iter
          (fun th ->
            if Thread.id th <> self then (try Thread.join th with _ -> ()))
          hs;
        drain ()
  in
  drain ();
  (Mutex.lock t.lock;
   let drainer = t.drainer in
   t.drainer <- None;
   Mutex.unlock t.lock;
   match drainer with
   | Some th -> ( try Thread.join th with _ -> ())
   | None -> ());
  Slots.retire t.slots;
  if Sys.file_exists t.socket_path then (
    try Sys.remove t.socket_path with _ -> ())

let stop t =
  shutdown_now t;
  Slots.retire t.slots

let drain_writes t = Slots.each t.slots ignore

let run t =
  start t;
  wait t

let stopping t = Atomic.get t.stop_flag
