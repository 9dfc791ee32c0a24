(* Admission control for the serving tier: the armor that keeps a
   saturated daemon responsive instead of wedged.

   Two independent gates, each answering with a typed "overloaded"
   rejection that carries a [retry_after_s] hint (so a well-behaved
   client backs off instead of hammering):

   - a live-connection bound: connections beyond [max_connections] are
     answered with "overloaded" and closed without reading a byte — an
     accept flood cannot grow the handler-thread population without
     limit;
   - a search-queue bound: at most [max_queue_depth] *distinct*
     searches may wait for a search slot (single-flight followers ride
     their leader's slot and are not counted) — queue wait stays
     bounded, so does the daemon's memory.

   All decisions are counted under service.admit.* and journaled
   ([admit.reject]) so an operator can alarm on shed load. *)

module J = Obs.Jsonw

type rejection = { kind : string; retry_after_s : float; detail : string }

type decision = Admitted | Rejected of rejection

type t = {
  max_connections : int;  (* 0 = unlimited *)
  max_queue_depth : int;  (* 0 = unlimited *)
  retry_after_s : float;  (* the hint on overload rejections *)
  lock : Mutex.t;
  mutable live_conns : int;
  mutable queue_depth : int;
  g_conns : Obs.Metrics.gauge;
  g_queue : Obs.Metrics.gauge;
  c_admitted : Obs.Metrics.counter;
  c_reject_conn : Obs.Metrics.counter;
  c_reject_queue : Obs.Metrics.counter;
}

let create ?(registry = Obs.Metrics.default ()) ?(max_connections = 64)
    ?(max_queue_depth = 64) ?(retry_after_s = 0.5) () =
  let c name help = Obs.Metrics.counter registry ~help name in
  {
    max_connections;
    max_queue_depth;
    retry_after_s;
    lock = Mutex.create ();
    live_conns = 0;
    queue_depth = 0;
    g_conns =
      Obs.Metrics.gauge registry ~help:"connections currently being handled"
        "service.admit.live_connections";
    g_queue =
      Obs.Metrics.gauge registry
        ~help:"distinct searches waiting for a search slot"
        "service.admit.queue_depth";
    c_admitted = c "service.admit.accepted" "connections admitted";
    c_reject_conn =
      c "service.admit.reject.overloaded"
        "connections shed at the live-connection bound";
    c_reject_queue =
      c "service.admit.reject.queue" "searches shed at the queue-depth bound";
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let journal_reject (r : rejection) =
  Obs.Journal.event "admit.reject"
    [
      ("kind", J.Str r.kind);
      ("retry_after_s", J.Float r.retry_after_s);
      ("detail", J.Str r.detail);
    ]

let reject counter r =
  Obs.Metrics.bump counter;
  journal_reject r;
  Rejected r

(* --- live-connection bound ------------------------------------------- *)

let try_conn t =
  locked t (fun () ->
      if t.max_connections > 0 && t.live_conns >= t.max_connections then
        reject t.c_reject_conn
          {
            kind = "overloaded";
            retry_after_s = t.retry_after_s;
            detail =
              Printf.sprintf "connection limit %d reached" t.max_connections;
          }
      else begin
        t.live_conns <- t.live_conns + 1;
        Obs.Metrics.set_gauge t.g_conns (float_of_int t.live_conns);
        Obs.Metrics.bump t.c_admitted;
        Admitted
      end)

let conn_done t =
  locked t (fun () ->
      t.live_conns <- max 0 (t.live_conns - 1);
      Obs.Metrics.set_gauge t.g_conns (float_of_int t.live_conns))

(* --- search-queue bound ---------------------------------------------- *)

let try_queue t =
  locked t (fun () ->
      if t.max_queue_depth > 0 && t.queue_depth >= t.max_queue_depth then
        reject t.c_reject_queue
          {
            kind = "overloaded";
            retry_after_s = t.retry_after_s;
            detail =
              Printf.sprintf "search queue depth %d reached" t.max_queue_depth;
          }
      else begin
        t.queue_depth <- t.queue_depth + 1;
        Obs.Metrics.set_gauge t.g_queue (float_of_int t.queue_depth);
        Admitted
      end)

let queue_done t =
  locked t (fun () ->
      t.queue_depth <- max 0 (t.queue_depth - 1);
      Obs.Metrics.set_gauge t.g_queue (float_of_int t.queue_depth))

(* --- introspection ---------------------------------------------------- *)

let live_conns t = locked t (fun () -> t.live_conns)
let queue_depth t = locked t (fun () -> t.queue_depth)

let status_json t =
  locked t (fun () ->
      J.Obj
        [
          ("live_connections", J.Int t.live_conns);
          ("max_connections", J.Int t.max_connections);
          ("queue_depth", J.Int t.queue_depth);
          ("max_queue_depth", J.Int t.max_queue_depth);
        ])
