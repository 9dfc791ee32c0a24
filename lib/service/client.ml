(* One-shot client for the optimization service: connect to the Unix
   socket, send one request frame, read one response frame. *)

module J = Obs.Jsonw

let connect ~socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let request ?on_progress ~socket_path req =
  (* mint a request id unless the caller brought one: the id comes back
     in the response and tags every server-side journal event, so a
     caller can join its call to the server's forensics *)
  let req, _rid = Reqid.ensure req in
  (* opting into streaming is the callback's presence: the request grows
     a ["progress": true] field (not part of the server's fingerprint,
     so cache keys are unchanged) and the read loop skips interleaved
     progress frames until the response — a frame with no ["type"] —
     arrives *)
  let req =
    match (on_progress, req) with
    | Some _, J.Obj fields when not (List.mem_assoc "progress" fields) ->
        J.Obj (fields @ [ ("progress", J.Bool true) ])
    | _ -> req
  in
  match connect ~socket_path with
  | exception e ->
      Error
        (Printf.sprintf "connect %s: %s" socket_path (Printexc.to_string e))
  | fd -> (
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          match
            (* a daemon that sheds the connection at the door answers
               without reading a byte and hangs up, so our write can
               meet a closed socket; its typed answer is still there to
               read *)
            (try Proto.write_frame fd req
             with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
            let rec read_resp () =
              let frame = Proto.read_frame fd in
              if Proto.is_progress frame then begin
                (match on_progress with Some f -> f frame | None -> ());
                read_resp ()
              end
              else frame
            in
            read_resp ()
          with
          | resp -> Ok resp
          | exception End_of_file -> Error "connection closed by server"
          | exception Proto.Protocol_error m -> Error m
          | exception Unix.Unix_error (e, fn, _) ->
              Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))))

let optimize ?(fields = []) ?on_progress ~socket_path ~benchmark () =
  request ?on_progress ~socket_path
    (J.Obj ([ ("op", J.Str "optimize"); ("benchmark", J.Str benchmark) ] @ fields))

let optimize_graph ?(fields = []) ?on_progress ~socket_path graph_json =
  request ?on_progress ~socket_path
    (J.Obj ([ ("op", J.Str "optimize"); ("graph", graph_json) ] @ fields))

let simple ~socket_path op = request ~socket_path (J.Obj [ ("op", J.Str op) ])
let status ~socket_path = simple ~socket_path "status"

let shutdown ?drain_s ~socket_path () =
  request ~socket_path
    (J.Obj
       (("op", J.Str "shutdown")
       ::
       (match drain_s with
       | Some s -> [ ("drain_s", J.Float s) ]
       | None -> [])))

let metrics ?format ~socket_path () =
  request ~socket_path
    (J.Obj
       (("op", J.Str "metrics")
       :: (match format with Some f -> [ ("format", J.Str f) ] | None -> [])))

(* --- typed-error helpers and retry ----------------------------------- *)

let error_kind resp =
  match J.member "status" resp with
  | Some (J.Str "error") -> (
      match J.member "error" resp with
      | Some (J.Str k) -> Some k
      | _ -> Some "error")
  | _ -> None

let retry_after_s resp =
  match J.member "retry_after_s" resp with
  | Some (J.Float s) -> Some s
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

(* Only requests that are safe to repeat are ever retried: optimize is
   idempotent by construction (same fingerprint, same cached answer)
   and the read-only ops trivially so. A shutdown is never retried. *)
let idempotent req =
  match J.member "op" req with
  | Some (J.Str ("optimize" | "status" | "metrics")) -> true
  | _ -> false

(* Load-shed responses are retryable — the server said "come back".
   A typed "timeout" is not: the request's own deadline expired, and
   retrying cannot un-expire it. *)
let retryable_kind = function "overloaded" -> true | _ -> false

let request_with_retry ?on_progress ?(max_attempts = 5)
    ?(base_delay_s = 0.05) ?(max_delay_s = 2.0) ?on_retry ~socket_path req =
  (* pin one rid across attempts so the server journal shows a single
     logical request, however many tries it took *)
  let req, _rid = Reqid.ensure req in
  if not (idempotent req) then request ?on_progress ~socket_path req
  else begin
    (* deterministic-free jitter without a global RNG: the fractional
       part of a scaled clock is plenty to de-synchronize retries *)
    let jitter () = Float.abs (fst (Float.modf (Unix.gettimeofday () *. 997.0))) in
    let backoff attempt hint =
      let exp_delay =
        Float.min max_delay_s
          (base_delay_s *. (2.0 ** float_of_int (attempt - 1)))
      in
      (* the server's retry_after_s hint is a floor, not a cap: backing
         off less than asked just earns another rejection *)
      let d = match hint with Some h -> Float.max h exp_delay | None -> exp_delay in
      Float.min max_delay_s (d *. (0.75 +. (0.5 *. jitter ())))
    in
    let note attempt delay_s reason =
      match on_retry with
      | Some f -> f ~attempt ~delay_s ~reason
      | None -> ()
    in
    let rec go attempt =
      match request ?on_progress ~socket_path req with
      | Ok resp as ok -> (
          match error_kind resp with
          | Some k when retryable_kind k && attempt < max_attempts ->
              let d = backoff attempt (retry_after_s resp) in
              note attempt d k;
              Unix.sleepf d;
              go (attempt + 1)
          | _ -> ok)
      | Error m when attempt < max_attempts ->
          let d = backoff attempt None in
          note attempt d m;
          Unix.sleepf d;
          go (attempt + 1)
      | Error _ as e -> e
    in
    go 1
  end

(* Poll until the server socket accepts a connection (daemon startup). *)
let wait_ready ?(timeout_s = 10.0) ~socket_path () =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if Unix.gettimeofday () -. t0 > timeout_s then false
    else
      match status ~socket_path with
      | Ok _ -> true
      | Error _ ->
          ignore (Unix.select [] [] [] 0.05);
          go ()
  in
  go ()
