(* Wire-level hardening tests: the Proto framing layer against
   adversarial byte streams (truncated headers, oversized lengths,
   garbage JSON, slowloris trickles, mid-frame disconnects — both
   directions, via the wire.* chaos points), the daemon against hostile
   peers (slowloris disconnected within the frame deadline, handler
   thread reclaimed), client resilience (request_with_retry rides
   through transient overload on the server's typed rejections), and
   the torture test: dozens of concurrent mixed-behavior clients against
   one daemon, which must stay responsive, shed load with typed errors,
   and leak neither threads nor temp files. *)

open Mugraph
module J = Obs.Jsonw

let reset () =
  Obs.Fault.clear ();
  Obs.Budget.reset_degradations ()

let with_reset f () =
  reset ();
  Fun.protect ~finally:reset f

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let small_config () =
  {
    Search.Config.default with
    Search.Config.grid_candidates = [ [| 2 |] ];
    forloop_candidates = [ [| 2 |] ];
    max_block_ops = 3;
    num_workers = 1;
    time_budget_s = 90.0;
  }

let small_spec ?(h = 4) () =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| 2; h |] in
  let c = Graph.Build.input bld "C" [| 2; 1 |] in
  let w = Graph.Build.input bld "W" [| h; 4 |] in
  let y = Graph.Build.prim bld (Op.Binary Op.Div) [ x; c ] in
  let z = Graph.Build.prim bld Op.Matmul [ y; w ] in
  Graph.Build.finish bld ~outputs:[ z ]

(* --- Proto vs adversarial byte streams (socketpair, both ends ours) --- *)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let header n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.to_string b

let expect_protocol_error name f =
  match f () with
  | (_ : J.t) -> Alcotest.failf "%s: frame accepted" name
  | exception Service.Proto.Protocol_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: wrong exception %s" name (Printexc.to_string e)

let test_clean_close () =
  with_pair (fun a b ->
      Unix.close a;
      match Service.Proto.read_frame b with
      | (_ : J.t) -> Alcotest.fail "read a frame from a closed peer"
      | exception End_of_file -> ())

let test_truncated_header () =
  with_pair (fun a b ->
      write_all a "\x00\x00";
      Unix.close a;
      expect_protocol_error "truncated header" (fun () ->
          Service.Proto.read_frame b))

let test_torn_payload () =
  with_pair (fun a b ->
      write_all a (header 100);
      write_all a "{\"op\":";
      Unix.close a;
      expect_protocol_error "torn payload" (fun () ->
          Service.Proto.read_frame b))

let test_disconnect_after_header () =
  with_pair (fun a b ->
      write_all a (header 42);
      Unix.close a;
      (* a promised payload that never starts is torn, not a clean close *)
      expect_protocol_error "disconnect after header" (fun () ->
          Service.Proto.read_frame b))

let test_oversized_length () =
  with_pair (fun a b ->
      write_all a (header (Service.Proto.max_frame_bytes + 1));
      expect_protocol_error "oversized length" (fun () ->
          Service.Proto.read_frame b))

let test_garbage_json () =
  with_pair (fun a b ->
      let junk = "not json at all {{{" in
      write_all a (header (String.length junk));
      write_all a junk;
      expect_protocol_error "garbage JSON" (fun () ->
          Service.Proto.read_frame b))

let test_slowloris_read_deadline () =
  with_pair (fun a b ->
      write_all a "\x00\x00";
      (* ...and silence: the reader must give up at its deadline *)
      let t0 = Unix.gettimeofday () in
      (match Service.Proto.read_frame ~timeout_s:0.2 b with
      | (_ : J.t) -> Alcotest.fail "slowloris produced a frame"
      | exception Service.Proto.Timed_out _ -> ()
      | exception e ->
          Alcotest.failf "wrong exception %s" (Printexc.to_string e));
      Alcotest.(check bool) "gave up promptly" true
        (Unix.gettimeofday () -. t0 < 2.0))

let test_idle_deadline () =
  with_pair (fun _a b ->
      match Service.Proto.read_frame ~idle_timeout_s:0.2 b with
      | (_ : J.t) -> Alcotest.fail "idle peer produced a frame"
      | exception Service.Proto.Timed_out _ -> ()
      | exception e ->
          Alcotest.failf "wrong exception %s" (Printexc.to_string e))

let test_write_deadline () =
  with_pair (fun a _b ->
      (* never drain [b]: the writer must hit its deadline once the
         socket buffers fill *)
      let big =
        J.Obj [ ("pad", J.Str (String.make (4 * 1024 * 1024) 'x')) ]
      in
      match Service.Proto.write_frame ~timeout_s:0.3 a big with
      | () -> Alcotest.fail "4 MiB vanished into an undrained socket"
      | exception Service.Proto.Timed_out _ -> ()
      | exception e ->
          Alcotest.failf "wrong exception %s" (Printexc.to_string e))

(* The wire.* chaos points: an armed writer emits exactly the malformed
   stream, raises locally, and the reader survives it with a typed
   protocol error. *)
let test_wire_fault_points =
  with_reset @@ fun () ->
  let run point check_reader =
    reset ();
    (match Obs.Fault.configure (point ^ ":1.0:1") with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    with_pair (fun a b ->
        (match Service.Proto.write_frame a (J.Obj [ ("op", J.Str "status") ]) with
        | () -> Alcotest.failf "%s: write completed" point
        | exception Service.Proto.Protocol_error _ -> ());
        Unix.close a;
        check_reader b)
  in
  run "wire.oversize" (fun b ->
      expect_protocol_error "oversize reader" (fun () ->
          Service.Proto.read_frame b));
  run "wire.disconnect" (fun b ->
      expect_protocol_error "disconnect reader" (fun () ->
          Service.Proto.read_frame b));
  run "wire.torn" (fun b ->
      expect_protocol_error "torn reader" (fun () ->
          Service.Proto.read_frame b))

(* --- the daemon vs hostile peers -------------------------------------- *)

let make_socket_server ?(max_connections = 16) ?(max_queue_depth = 8)
    ?(frame_timeout_s = 0.4) ?(idle_timeout_s = 0.4)
    ?(max_concurrent_searches = 2) () =
  let socket_path = Filename.temp_file "mirage_wire_sock" ".sock" in
  Sys.remove socket_path;
  let server =
    Service.Server.create
      ~registry:(Obs.Metrics.create ())
      ~device:Gpusim.Device.a100 ~base_config:(small_config ())
      ~max_concurrent_searches ~max_connections
      ~max_queue_depth ~frame_timeout_s ~idle_timeout_s ~socket_path
      ~cache_dir:(tmpdir "mirage_wire_cache") ()
  in
  Service.Server.start server;
  Alcotest.(check bool) "daemon ready" true
    (Service.Client.wait_ready ~socket_path ());
  (server, socket_path)

let stop_server server =
  Service.Server.stop server;
  Service.Server.wait server

(* Poll until the daemon has reaped every handler thread. *)
let await_quiet ?(timeout_s = 5.0) server =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if Service.Server.handler_count server = 0 then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let connect socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  fd

(* A slowloris client — two header bytes, then silence — is disconnected
   within the frame deadline with a typed timeout, and its handler
   thread is reclaimed, not parked until shutdown. *)
let test_server_slowloris =
  with_reset @@ fun () ->
  let server, socket_path = make_socket_server () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let fd = connect socket_path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  write_all fd "\x00\x00";
  let t0 = Unix.gettimeofday () in
  (* the server must answer a typed timeout (or just hang up), then
     close — our read unblocks either way *)
  (match Service.Proto.read_frame ~timeout_s:3.0 fd with
  | frame ->
      Alcotest.(check string) "typed timeout answer" "timeout"
        (match J.member "error" frame with Some (J.Str s) -> s | _ -> "?")
  | exception End_of_file -> ()
  | exception Service.Proto.Protocol_error _ -> ());
  Alcotest.(check bool) "disconnected within the frame deadline" true
    (Unix.gettimeofday () -. t0 < 2.0);
  Alcotest.(check bool) "handler thread reclaimed" true (await_quiet server);
  (* the daemon is unharmed: a well-formed request still answers *)
  match Service.Client.status ~socket_path with
  | Ok r ->
      Alcotest.(check bool) "daemon healthy after slowloris" true
        (J.member "status" r = Some (J.Str "ok"))
  | Error m -> Alcotest.failf "status after slowloris: %s" m

(* Transient overload: with a one-connection daemon wedged by an idler,
   a plain request gets the typed overloaded rejection, and
   request_with_retry rides through it once the idler leaves. *)
let test_retry_through_overload =
  with_reset @@ fun () ->
  let server, socket_path =
    make_socket_server ~max_connections:1 ~idle_timeout_s:10.0
      ~frame_timeout_s:10.0 ()
  in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  (* the readiness probe's handler can still hold the slot after its
     answer arrived; the hog connects only once it is gone, so the one
     live connection counted below is the hog's, not the probe's (a
     probe releasing the slot after the count would let the plain
     request in) *)
  Alcotest.(check bool) "probe handler reaped" true (await_quiet server);
  Alcotest.(check int) "no live connection before the hog" 0
    (Service.Admit.live_conns (Service.Server.admit server));
  let hog = connect socket_path in
  (* wait for the hog's handler to take the one connection slot *)
  let t0 = Unix.gettimeofday () in
  while
    Service.Admit.live_conns (Service.Server.admit server) < 1
    && Unix.gettimeofday () -. t0 < 5.0
  do
    Thread.delay 0.01
  done;
  Alcotest.(check int) "hog holds the only slot" 1
    (Service.Admit.live_conns (Service.Server.admit server));
  (* a plain request is shed with the typed rejection, never a hang *)
  (match Service.Client.status ~socket_path with
  | Ok r ->
      Alcotest.(check (option string)) "typed overloaded" (Some "overloaded")
        (Service.Client.error_kind r);
      Alcotest.(check bool) "carries retry_after_s" true
        (Service.Client.retry_after_s r <> None)
  | Error m -> Alcotest.failf "overload answered with transport error: %s" m);
  (* free the slot only once the retrying client has been shed at least
     once (a fixed delay flakes under load: on a busy host the first
     retry attempt can come after the slot is already free, and then no
     attempt ever sees the typed rejection); 5 s cap so a wedged retry
     loop still ends in a reported failure, not a hang *)
  let reasons = ref [] in
  let releaser =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        while
          (not (List.mem "overloaded" !reasons))
          && Unix.gettimeofday () -. t0 < 5.0
        do
          Thread.delay 0.02
        done;
        Unix.close hog)
      ()
  in
  let resp =
    Service.Client.request_with_retry ~max_attempts:20 ~base_delay_s:0.05
      ~max_delay_s:0.2
      ~on_retry:(fun ~attempt:_ ~delay_s:_ ~reason ->
        reasons := reason :: !reasons)
      ~socket_path
      (J.Obj [ ("op", J.Str "status") ])
  in
  Thread.join releaser;
  (match resp with
  | Ok r ->
      Alcotest.(check bool) "retry landed a real answer" true
        (J.member "status" r = Some (J.Str "ok"))
  | Error m -> Alcotest.failf "request_with_retry gave up: %s" m);
  Alcotest.(check bool) "the shed attempts were typed overloaded" true
    (List.mem "overloaded" !reasons)

(* --- the torture test -------------------------------------------------- *)

(* Dozens of concurrent clients with mixed behavior — honest searches,
   torn frames, garbage, idlers, impossibly tight deadlines — against
   one daemon. The daemon must answer every honest request, shed the
   rest with typed errors or disconnects, and come out quiet: zero
   handler threads, zero orphaned temp files, flights drained, and a
   fresh request served. *)
let test_torture =
  with_reset @@ fun () ->
  let server, socket_path =
    make_socket_server ~max_connections:32 ~max_queue_depth:4
      ~frame_timeout_s:0.5 ~idle_timeout_s:0.5 ~max_concurrent_searches:2 ()
  in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let good_graph = Search.Checkpoint.graph_to_json (small_spec ()) in
  let other_graph = Search.Checkpoint.graph_to_json (small_spec ~h:8 ()) in
  let good_results = Queue.create () in
  let good_lock = Mutex.create () in
  let failures = Queue.create () in
  let fail_with m =
    Mutex.lock good_lock;
    Queue.add m failures;
    Mutex.unlock good_lock
  in
  let honest i () =
    match
      Service.Client.request ~socket_path
        (J.Obj
           [
             ("op", J.Str "optimize");
             ("graph", good_graph);
             ("request_id", J.Str (Printf.sprintf "torture-good-%d" i));
           ])
    with
    | Ok r when J.member "status" r = Some (J.Str "ok") ->
        Mutex.lock good_lock;
        Queue.add (J.to_string (Option.get (J.member "result" r))) good_results;
        Mutex.unlock good_lock
    | Ok r -> fail_with ("honest request rejected: " ^ J.to_string r)
    | Error m -> fail_with ("honest request errored: " ^ m)
  in
  let partial_frame () =
    match connect socket_path with
    | exception _ -> ()
    | fd ->
        (try write_all fd "\x00\x01" with _ -> ());
        Thread.delay 0.02;
        (try Unix.close fd with _ -> ())
  in
  let garbage () =
    match connect socket_path with
    | exception _ -> ()
    | fd ->
        (try
           let junk = "}}{{ definitely not json" in
           write_all fd (header (String.length junk));
           write_all fd junk;
           (* the daemon answers a typed bad_frame; draining is polite
              but optional *)
           ignore (Service.Proto.read_frame ~timeout_s:2.0 fd)
         with _ -> ());
        (try Unix.close fd with _ -> ())
  in
  let idler () =
    match connect socket_path with
    | exception _ -> ()
    | fd ->
        (* outlive the idle deadline: the server must hang up first *)
        Thread.delay 0.8;
        (try Unix.close fd with _ -> ())
  in
  let tight_deadline i () =
    match
      Service.Client.request ~socket_path
        (J.Obj
           [
             ("op", J.Str "optimize");
             ("graph", other_graph);
             ("deadline_ms", J.Float 1.0);
             ("request_id", J.Str (Printf.sprintf "torture-tight-%d" i));
           ])
    with
    | Ok r -> (
        match (J.member "status" r, Service.Client.error_kind r) with
        | Some (J.Str "ok"), _ -> () (* cache can be that fast; fine *)
        | _, Some ("timeout" | "overloaded") -> ()
        | _ -> fail_with ("tight deadline answered oddly: " ^ J.to_string r))
    | Error m -> fail_with ("tight deadline transport error: " ^ m)
  in
  let prober () =
    match Service.Client.status ~socket_path with
    | Ok _ -> ()
    | Error m -> fail_with ("status probe failed: " ^ m)
  in
  let jobs =
    List.concat
      [
        List.init 6 (fun i -> honest i);
        List.init 5 (fun _ -> partial_frame);
        List.init 5 (fun _ -> garbage);
        List.init 4 (fun _ -> idler);
        List.init 4 (fun i -> tight_deadline i);
        List.init 2 (fun _ -> prober);
      ]
  in
  let threads = List.map (fun j -> Thread.create j ()) jobs in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no honest client was failed" []
    (List.of_seq (Queue.to_seq failures));
  (* every honest client saw the same result *)
  let results = List.of_seq (Queue.to_seq good_results) in
  Alcotest.(check int) "all honest requests answered" 6 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check string) "identical results" (List.hd results) r)
    results;
  (* quiet: every handler reaped, no flight left behind *)
  Alcotest.(check bool) "zero leaked handler threads" true
    (await_quiet server);
  Alcotest.(check int) "no flight left in the table" 0
    (Service.Server.flight_count server);
  (* no crash residue in the cache: durable writes leave no temps once
     the slots have finished them *)
  Service.Server.drain_writes server;
  let cache_dir = Service.Cache.dir (Service.Server.cache server) in
  let temps = ref [] in
  let rec scan d =
    match Sys.readdir d with
    | entries ->
        Array.iter
          (fun f ->
            let p = Filename.concat d f in
            if Sys.is_directory p then (if f <> "quarantine" then scan p)
            else if
              String.length f >= 16 && String.sub f 0 16 = ".result.json.tmp"
            then temps := p :: !temps)
          entries
    | exception Sys_error _ -> ()
  in
  scan cache_dir;
  Alcotest.(check (list string)) "zero orphaned temp files" [] !temps;
  (* and the daemon still serves, warm *)
  match
    Service.Client.request ~socket_path
      (J.Obj [ ("op", J.Str "optimize"); ("graph", good_graph) ])
  with
  | Ok r ->
      Alcotest.(check bool) "post-chaos request served from cache" true
        (J.member "cached" r = Some (J.Bool true))
  | Error m -> Alcotest.failf "post-chaos request failed: %s" m

(* Graceful drain: a shutdown with drain_s answers, stops accepting and
   lets the daemon wind down cleanly. *)
let test_drain_shutdown =
  with_reset @@ fun () ->
  let server, socket_path = make_socket_server () in
  (* warm one entry so there is real state to drain around *)
  (match
     Service.Client.request ~socket_path
       (J.Obj
          [
            ("op", J.Str "optimize");
            ("graph", Search.Checkpoint.graph_to_json (small_spec ()));
          ])
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "warmup failed: %s" m);
  (match Service.Client.shutdown ~drain_s:2.0 ~socket_path () with
  | Ok r ->
      Alcotest.(check bool) "shutdown acknowledged" true
        (J.member "stopping" r = Some (J.Bool true));
      Alcotest.(check bool) "drain window echoed" true
        (match J.member "drain_s" r with
        | Some (J.Float f) -> f = 2.0
        | Some (J.Int i) -> i = 2
        | _ -> false)
  | Error m -> Alcotest.failf "drain shutdown failed: %s" m);
  Service.Server.wait server;
  Alcotest.(check int) "all handlers joined" 0
    (Service.Server.handler_count server);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path)

(* The socket liveness probe: a second daemon refuses to hijack a live
   daemon's socket, but adopts a genuinely stale one. *)
let test_socket_liveness =
  with_reset @@ fun () ->
  let server, socket_path = make_socket_server () in
  let rival =
    Service.Server.create
      ~registry:(Obs.Metrics.create ())
      ~device:Gpusim.Device.a100 ~base_config:(small_config ())
      ~socket_path ~cache_dir:(tmpdir "mirage_rival_cache") ()
  in
  (match Service.Server.start rival with
  | () ->
      Service.Server.stop rival;
      Alcotest.fail "second daemon hijacked a live socket"
  | exception Failure m ->
      Alcotest.(check bool) "clear refusal names the socket" true
        (contains ~needle:"already listening" m));
  stop_server server;
  (* the socket file is gone after a clean stop; recreate a stale one *)
  let oc = open_out socket_path in
  close_out oc;
  Sys.remove socket_path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.close fd;
  (* bound but never listened, and the owner is gone: stale *)
  Service.Server.start rival;
  Fun.protect ~finally:(fun () -> stop_server rival) @@ fun () ->
  Alcotest.(check bool) "stale socket adopted" true
    (Service.Client.wait_ready ~socket_path ())

let () =
  Alcotest.run "wire"
    [
      ( "proto",
        [
          Alcotest.test_case "clean close is End_of_file" `Quick
            test_clean_close;
          Alcotest.test_case "truncated header is torn" `Quick
            test_truncated_header;
          Alcotest.test_case "torn payload is torn" `Quick test_torn_payload;
          Alcotest.test_case "disconnect after header is torn" `Quick
            test_disconnect_after_header;
          Alcotest.test_case "oversized length rejected unread" `Quick
            test_oversized_length;
          Alcotest.test_case "garbage JSON rejected" `Quick test_garbage_json;
          Alcotest.test_case "slowloris hits the read deadline" `Quick
            test_slowloris_read_deadline;
          Alcotest.test_case "idle peer hits the idle deadline" `Quick
            test_idle_deadline;
          Alcotest.test_case "undrained peer hits the write deadline" `Quick
            test_write_deadline;
          Alcotest.test_case "wire.* chaos points, both directions" `Quick
            test_wire_fault_points;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "slowloris disconnected, thread reaped" `Slow
            test_server_slowloris;
          Alcotest.test_case "typed overload, retry rides through" `Slow
            test_retry_through_overload;
          Alcotest.test_case "drain shutdown winds down clean" `Slow
            test_drain_shutdown;
          Alcotest.test_case "socket liveness probe" `Slow
            test_socket_liveness;
        ] );
      ( "torture",
        [ Alcotest.test_case "mixed hostile fleet" `Slow test_torture ] );
    ]
