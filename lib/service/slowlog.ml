(* Slow-request forensics. When an optimize request's total latency
   crosses the configured threshold, the server writes a self-contained
   report directory named by request id:

     DIR/<rid>/report.json     envelope: stages, outcome, threshold
     DIR/<rid>/journal.jsonl   the global journal sliced to this rid

   Capture is best-effort and bounded: it never throws into the request
   path (a forensics failure must not fail the request) and stops after
   [max_reports] directories so a misconfigured threshold cannot fill
   the disk. The journal slice works because every event emitted while
   a request's context is installed carries its rid — including events
   from search worker domains, which inherit the context at spawn. *)

module J = Obs.Jsonw

let report_schema = "mirage.service.slow_report.v1"

type t = {
  dir : string;
  threshold_s : float;
  max_reports : int;
  captured : int Atomic.t;
  skipped : int Atomic.t;
  c_captured : Obs.Metrics.counter;
  lock : Mutex.t;  (* one capture writes at a time *)
}

let create ?(registry = Obs.Metrics.default ()) ?(max_reports = 32) ~dir
    ~threshold_s () =
  {
    dir;
    threshold_s;
    max_reports = max 1 max_reports;
    captured = Atomic.make 0;
    skipped = Atomic.make 0;
    c_captured =
      Obs.Metrics.counter registry ~help:"slow-request reports written"
        "serve.slow_reports";
    lock = Mutex.create ();
  }

let dir t = t.dir
let threshold_s t = t.threshold_s
let captured t = Atomic.get t.captured
let skipped t = Atomic.get t.skipped

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The journal events belonging to one request, in file order. *)
let journal_slice ~path ~rid =
  Result.map
    (List.filter (fun e -> Obs.Journal.rid_of e = rid))
    (Obs.Journal.read_file path)

let envelope t ~rid ~op ~outcome ~degraded ~total_s ~stages ~response_status
    ~journal_events ~artifacts =
  J.Obj
    [
      ("schema", J.Str report_schema);
      ("request_id", J.Str rid);
      ("op", J.Str op);
      ("outcome", J.Str (if outcome = "" then "unknown" else outcome));
      ("degraded", J.Bool degraded);
      ("threshold_ms", J.Float (t.threshold_s *. 1e3));
      ("total_ms", J.Float (total_s *. 1e3));
      ( "stages_ms",
        J.Obj (List.map (fun (n, dt) -> (n, J.Float (dt *. 1e3))) stages) );
      ("response_status", J.Str response_status);
      ("journal_events", J.Int journal_events);
      ("artifacts", J.List (List.map (fun a -> J.Str a) artifacts));
    ]

(* Returns the report directory when a report was written. *)
let capture t ~rid ~op ~outcome ~degraded ~total_s ~stages ~response_status =
  if Atomic.get t.captured >= t.max_reports then begin
    Atomic.incr t.skipped;
    None
  end
  else
    try
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          if Atomic.get t.captured >= t.max_reports then begin
            Atomic.incr t.skipped;
            None
          end
          else begin
            let rdir = Filename.concat t.dir rid in
            mkdir_p rdir;
            (* slice the journal first so the envelope can count it *)
            let journal_events, jart =
              match Obs.Journal.active () with
              | None -> (0, [])
              | Some jr -> (
                  Obs.Journal.flush jr;
                  match journal_slice ~path:(Obs.Journal.path jr) ~rid with
                  | Ok events ->
                      let jpath = Filename.concat rdir "journal.jsonl" in
                      let oc = open_out jpath in
                      List.iter
                        (fun e ->
                          output_string oc (J.to_string e);
                          output_char oc '\n')
                        events;
                      close_out oc;
                      (List.length events, [ "journal.jsonl" ])
                  | Error _ -> (0, []))
            in
            let artifacts = "report.json" :: jart in
            J.to_file
              (Filename.concat rdir "report.json")
              (envelope t ~rid ~op ~outcome ~degraded ~total_s ~stages
                 ~response_status ~journal_events ~artifacts);
            Atomic.incr t.captured;
            Obs.Metrics.bump t.c_captured;
            Obs.Log.warn (fun m ->
                m "slow request %s: %.1f ms > %.1f ms threshold, report in %s"
                  rid (total_s *. 1e3)
                  (t.threshold_s *. 1e3)
                  rdir);
            Some rdir
          end)
    with _ ->
      (* forensics must never fail the request *)
      Atomic.incr t.skipped;
      None

let maybe_capture t (tele_sample : Telemetry.sample) ~response =
  let total_s = Telemetry.sample_total_s tele_sample in
  if
    Telemetry.sample_op tele_sample = "optimize"
    && total_s >= t.threshold_s
  then
    let response_status =
      match J.member "status" response with Some (J.Str s) -> s | _ -> "?"
    in
    ignore
      (capture t
         ~rid:(Telemetry.sample_rid tele_sample)
         ~op:(Telemetry.sample_op tele_sample)
         ~outcome:(Telemetry.sample_outcome tele_sample)
         ~degraded:(Telemetry.sample_degraded tele_sample)
         ~total_s
         ~stages:(Telemetry.sample_stages tele_sample)
         ~response_status)
