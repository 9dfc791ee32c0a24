(* Tests for the observability layer: the metrics registry under domain
   concurrency (increments must be exact, not approximate), the
   profiler's timeline and its Chrome JSON output, the JSON
   writer/parser pair, and the search-funnel invariant on a real (small)
   search. *)

open Mugraph

(* --- metrics: exactness under domains ------------------------------------ *)

let test_counter_domains () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "test.bumps" in
  let domains = 4 and per = 50_000 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Obs.Metrics.bump c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (domains * per)
    (Obs.Metrics.value c)

let test_metrics_merge () =
  let mk n =
    let reg = Obs.Metrics.create () in
    let c = Obs.Metrics.counter reg "m.count" in
    let h = Obs.Metrics.hdr reg "m.hdr" in
    for _ = 1 to n do
      Obs.Metrics.bump c
    done;
    for i = 1 to n do
      Obs.Hdr.record h (1e-3 *. float_of_int (1 + (i mod 3)))
    done;
    Obs.Metrics.snapshot reg
  in
  let merged = Obs.Metrics.merge [ mk 10; mk 32 ] in
  Alcotest.(check int) "counters summed by name" 42
    (List.assoc "m.count" merged.Obs.Metrics.counters);
  let h = List.assoc "m.hdr" merged.Obs.Metrics.hdrs in
  Alcotest.(check int) "hdr counts summed" 42 h.Obs.Hdr.count

(* --- json writer/parser --------------------------------------------------- *)

let rec json_equal a b =
  match a, b with
  | Obs.Jsonw.Null, Obs.Jsonw.Null -> true
  | Obs.Jsonw.Bool x, Obs.Jsonw.Bool y -> x = y
  | Obs.Jsonw.Int x, Obs.Jsonw.Int y -> x = y
  | Obs.Jsonw.Float x, Obs.Jsonw.Float y -> Float.equal x y
  | Obs.Jsonw.Int x, Obs.Jsonw.Float y | Obs.Jsonw.Float y, Obs.Jsonw.Int x ->
      Float.equal (float_of_int x) y
  | Obs.Jsonw.Str x, Obs.Jsonw.Str y -> String.equal x y
  | Obs.Jsonw.List x, Obs.Jsonw.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Obs.Jsonw.Obj x, Obs.Jsonw.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
           x y
  | _ -> false

let test_json_roundtrip () =
  let v =
    Obs.Jsonw.(
      Obj
        [
          ("name", Str "a \"quoted\"\nstring with \t and \\ and \x01");
          ("unicode", Str "µGraph ≤ 7");
          ("n", Int 42);
          ("x", Float 2.5);
          ("flag", Bool true);
          ("nothing", Null);
          ("nested", List [ Int 1; List [ Str "two" ]; Obj [ ("k", Int 3) ] ]);
        ])
  in
  match Obs.Jsonw.of_string (Obs.Jsonw.to_string v) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' -> Alcotest.(check bool) "roundtrip preserves value" true (json_equal v v')

let test_json_parse_errors () =
  let bad = [ "{"; "[1,]"; "\"unterminated"; "{\"a\":1} trailing"; "nul" ] in
  List.iter
    (fun s ->
      match Obs.Jsonw.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    bad;
  match Obs.Jsonw.of_string "  {\"a\": [1, 2.5, \"\\u00b5\"]}  " with
  | Error e -> Alcotest.failf "rejected valid JSON: %s" e
  | Ok j -> (
      match Obs.Jsonw.member "a" j with
      | Some (Obs.Jsonw.List [ _; _; Obs.Jsonw.Str mu ]) ->
          Alcotest.(check string) "\\u escape decoded" "\xc2\xb5" mu
      | _ -> Alcotest.fail "wrong parse shape")

(* qcheck: arbitrary documents survive the writer/parser pair, both the
   compact and the pretty renderings. Floats print with %.12g, so the
   reparsed number is compared with a relative tolerance (and a float
   with an integral value legitimately comes back as an Int). *)

let gen_json : Obs.Jsonw.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let scalar =
           oneof
             [
               return Obs.Jsonw.Null;
               map (fun b -> Obs.Jsonw.Bool b) bool;
               map (fun i -> Obs.Jsonw.Int i) int;
               map
                 (fun f -> Obs.Jsonw.Float f)
                 (float_range (-1.0e9) 1.0e9);
               map (fun s -> Obs.Jsonw.Str s) string_printable;
             ]
         in
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun l -> Obs.Jsonw.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Obs.Jsonw.Obj kvs)
                   (list_size (int_bound 4)
                      (pair string_printable (self (n / 2)))) );
             ])

let float_close x y =
  Float.abs (x -. y) <= 1.0e-9 *. Float.max 1.0 (Float.abs x)

let rec json_close a b =
  match a, b with
  | Obs.Jsonw.Float x, Obs.Jsonw.Float y -> float_close x y
  | Obs.Jsonw.Float x, Obs.Jsonw.Int y | Obs.Jsonw.Int y, Obs.Jsonw.Float x ->
      float_close x (float_of_int y)
  | Obs.Jsonw.List x, Obs.Jsonw.List y ->
      List.length x = List.length y && List.for_all2 json_close x y
  | Obs.Jsonw.Obj x, Obs.Jsonw.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_close v1 v2)
           x y
  | _ -> json_equal a b

let prop_jsonw_roundtrip =
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"compact and pretty round-trip"
       ~print:Obs.Jsonw.to_string gen_json (fun v ->
         let reparses s =
           match Obs.Jsonw.of_string s with
           | Ok v' -> json_close v v'
           | Error _ -> false
         in
         reparses (Obs.Jsonw.to_string v) && reparses (Obs.Jsonw.pretty v)))

(* The writer renders floats through the C primitive behind Printf, so
   its output must stay byte-identical to the Printf rendering: integral
   values below 1e15 as [%.0f], everything else finite as [%.12g], and
   nan/inf as [null]. *)
let prop_jsonw_float_printf =
  let open QCheck2.Gen in
  let special =
    oneofl
      [
        0.0; -0.0; 1e15; -1e15; 1e15 -. 1.0; 1e15 +. 2.0; -.(1e15 -. 1.0);
        999999999999999.5; 5e-324; -5e-324; Float.min_float;
        Float.min_float /. 3.0; Float.max_float; Float.nan; Float.infinity;
        Float.neg_infinity;
      ]
  in
  let integral = map Float.of_int (int_range (-1_000_000_000) 1_000_000_000) in
  let near_edge = map (fun d -> 1e15 +. Float.of_int d) (int_range (-5) 5) in
  let subnormal = map (fun m -> Float.ldexp (Float.of_int m) (-1074)) nat in
  let bits = map Int64.float_of_bits int64 in
  let reference f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.12g" f
  in
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"floats render as Printf does"
       ~print:(Printf.sprintf "%h")
       (oneof [ special; integral; near_edge; subnormal; bits; float ])
       (fun f -> Obs.Jsonw.to_string (Obs.Jsonw.Float f) = reference f))

(* --- journal --------------------------------------------------------------- *)

let test_journal_domains () =
  let path = Filename.temp_file "mirage_journal" ".jsonl" in
  let j = Obs.Journal.create ~path () in
  let domains = 4 and per = 500 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              let cand = Obs.Journal.fresh_id j in
              Obs.Journal.emit j ~cand ~typ:"test.ev"
                [ ("tag", Obs.Jsonw.Int d); ("i", Obs.Jsonw.Int i) ]
            done))
  in
  List.iter Domain.join ds;
  Obs.Journal.close j;
  (match Obs.Journal.read_file path with
  | Error e -> Alcotest.failf "journal unreadable (torn line?): %s" e
  | Ok events ->
      Alcotest.(check int) "no lost events" (domains * per)
        (List.length events);
      let tbl = Hashtbl.create 997 in
      List.iter
        (fun e ->
          let get k =
            match Obs.Jsonw.member k e with
            | Some (Obs.Jsonw.Int n) -> n
            | _ -> Alcotest.failf "event missing int field %S" k
          in
          let key = (get "tag", get "i") in
          Hashtbl.replace tbl key
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
        events;
      Alcotest.(check int) "every (domain, i) pair present" (domains * per)
        (Hashtbl.length tbl);
      Hashtbl.iter
        (fun _ n ->
          if n <> 1 then Alcotest.fail "an event was written twice")
        tbl;
      let uniq l = List.length (List.sort_uniq compare l) in
      Alcotest.(check (list int))
        "seq in file order is 0 .. n-1"
        (List.init (domains * per) Fun.id)
        (List.map Obs.Journal.seq_of events);
      Alcotest.(check int) "candidate ids unique" (domains * per)
        (uniq (List.map Obs.Journal.cand_of events));
      List.iter
        (fun e ->
          Alcotest.(check string) "event type" "test.ev" (Obs.Journal.typ_of e))
        events);
  Sys.remove path

let test_journal_global_off () =
  Obs.Journal.disable ();
  Alcotest.(check bool) "no journal installed" true
    (Obs.Journal.active () = None);
  (* must be a plain no-op, not an error *)
  Obs.Journal.event "test.noop" [ ("x", Obs.Jsonw.Int 1) ]

(* --- run reports: numeric diff and the regression gate --------------------- *)

let test_report_gate () =
  let mk opt wall =
    Obs.Jsonw.Obj
      [
        ("schema", Obs.Jsonw.Str Obs.Report.schema);
        ("cost", Obs.Jsonw.Obj [ ("optimized_us", Obs.Jsonw.Float opt) ]);
        ("timing", Obs.Jsonw.Obj [ ("wall_s", Obs.Jsonw.Float wall) ]);
        ("funnel", Obs.Jsonw.Obj [ ("expanded", Obs.Jsonw.Int 100) ]);
      ]
  in
  let a = mk 10.0 5.0 in
  let b = mk 12.0 5.1 in
  let ds = Obs.Report.num_deltas a b in
  Alcotest.(check bool) "dotted path found" true
    (List.exists (fun (d : Obs.Report.delta) -> d.key = "cost.optimized_us") ds);
  Alcotest.(check bool) "shared int leaf found" true
    (List.exists (fun (d : Obs.Report.delta) -> d.key = "funnel.expanded") ds);
  (* a -> b: cost +20% (over a 5% threshold), wall +2% (under) *)
  let viol = Obs.Report.gate ~threshold:0.05 a b in
  Alcotest.(check (list string)) "regression detected"
    [ "cost.optimized_us" ]
    (List.map (fun (d : Obs.Report.delta) -> d.key) viol);
  Alcotest.(check bool) "relative change" true
    (float_close (Obs.Report.rel (List.hd viol)) 0.2);
  (* a generous threshold passes, and an improvement never trips *)
  Alcotest.(check int) "under threshold" 0
    (List.length (Obs.Report.gate ~threshold:0.25 a b));
  Alcotest.(check int) "improvement is not a regression" 0
    (List.length (Obs.Report.gate ~threshold:0.05 b a))

(* --- the gate table: Obs.Report.history_rules and diff_rules -------------- *)

let suites l = ("suites", Obs.Jsonw.List (List.map (fun s -> Obs.Jsonw.Str s) l))

(* A one-key document for a row: [section.wl.<suffix>], or the bare
   suffix for a top-level row. *)
let row_doc (r : Obs.Report.rule) v =
  let leaf = Obs.Jsonw.Float v in
  if r.section = "" then Obs.Jsonw.Obj [ (r.suffix, leaf); suites [ "fig7" ] ]
  else
    Obs.Jsonw.Obj
      [ (r.section, Obs.Jsonw.Obj [ ("wl." ^ r.suffix, leaf) ]); suites [ "fig7" ] ]

(* (a) each row passes just inside its slack and fails just past it, in
   its worse direction only; recorded rows never fail. *)
let test_gate_rows () =
  let threshold = 0.05 and old = 10.0 in
  List.iter
    (fun (r : Obs.Report.rule) ->
      let key =
        if r.section = "" then r.suffix else r.section ^ ".wl." ^ r.suffix
      in
      let rows = Obs.Report.history_rules @ Obs.Report.diff_rules in
      Alcotest.(check int) (key ^ " matches one row") 1
        (List.length (Obs.Report.matching rows key));
      let frac =
        match r.rel_slack with Obs.Report.Gate m -> m *. threshold | Fixed f -> f
      in
      let bound = Float.max (frac *. old) r.abs_slack in
      let fails ?(old = old) v =
        Obs.Report.gate ~rules:rows ~threshold (row_doc r old) (row_doc r v)
        <> []
      in
      let dir = if r.worse = Obs.Report.Lower then -1.0 else 1.0 in
      let past = (bound *. (1.0 +. 1e-6)) +. 1e-9
      and inside = bound *. (1.0 -. 1e-6) in
      let gated = r.worse <> Obs.Report.Recorded in
      Alcotest.(check bool) (key ^ " just past, worse way") gated
        (fails (old +. (dir *. past)));
      Alcotest.(check bool) (key ^ " just inside, worse way") false
        (fails (old +. (dir *. inside)));
      Alcotest.(check bool) (key ^ " just past, better way") false
        (fails (old -. (dir *. past)));
      Alcotest.(check bool) (key ^ " far past, better way") false
        (fails (old -. (dir *. 10.0 *. (past +. 1.0))));
      Alcotest.(check bool) (key ^ " no baseline at 0") false
        (fails ~old:0.0 (dir *. 1e9)))
    (Obs.Report.history_rules @ Obs.Report.diff_rules)

let history_entries () =
  let ic = open_in "../BENCH_history.jsonl" in
  let rec go acc =
    match input_line ic with
    | line when String.trim line = "" -> go acc
    | line -> (
        match Obs.Jsonw.of_string line with
        | Ok j -> go (j :: acc)
        | Error e -> Alcotest.failf "BENCH_history.jsonl: %s" e)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* (b) every numeric key of the newest committed entry has exactly one
   row, so a new bench key cannot fall through unruled. *)
let test_gate_covers_history () =
  let entries = history_entries () in
  let last = List.nth entries (List.length entries - 1) in
  let keys = Obs.Report.num_deltas last last in
  Alcotest.(check bool) "entry has keys" true (List.length keys > 50);
  List.iter
    (fun (d : Obs.Report.delta) ->
      Alcotest.(check int) (d.key ^ " has one row") 1
        (List.length (Obs.Report.matching Obs.Report.history_rules d.key)))
    keys

(* (c) the committed entries replayed pair by pair: the verdicts the old
   per-suite gate gave them (keys named as the REGRESSION lines name
   them, i.e. without the section). *)
let test_gate_replay () =
  let entries = Array.of_list (history_entries ()) in
  let verdicts pct =
    List.init 13 (fun i ->
        Obs.Report.gate ~rules:Obs.Report.history_rules
          ~threshold:(pct /. 100.0) entries.(i) entries.(i + 1)
        |> List.map (fun (d : Obs.Report.delta) -> snd (Obs.Report.split d.key))
        |> List.sort compare)
  in
  Alcotest.(check (list (list string))) "--gate 5" (List.init 13 (fun _ -> []))
    (verdicts 5.0);
  let p99 = [ "serve.search.p99_us"; "serve.total.p99_us" ] in
  Alcotest.(check (list (list string))) "--gate 1"
    [
      [ "verify.RMSNorm.fast_over_ref" ];
      [];
      [];
      p99;
      [ "serve.search.p50_us" ] @ p99
      @ [ "verify.GQA.fast_over_ref"; "verify.nTrans.fast_over_ref" ];
      [ "verify.GatedMLP.fast_over_ref" ];
      [
        "enum.rmsnorm.expansions_per_s";
        "verify.RMSNorm.fast_over_ref";
        "verify.nTrans.fast_over_ref";
      ];
      [];
      [ "verify.GQA.fast_over_ref" ];
      [];
      ("enum.rmsnorm.expansions_per_s" :: p99)
      @ [ "verify.RMSNorm.fast_over_ref"; "verify.nTrans.fast_over_ref" ];
      [ "verify.RMSNorm.fast_over_ref" ];
      [ "verify.GQA.fast_over_ref"; "verify.GatedMLP.fast_over_ref"; "wall_s" ];
    ]
    (verdicts 1.0)

(* (d) wall time compares only runs of the same suites. *)
let test_gate_wall_suites () =
  let entry l wall =
    Obs.Jsonw.Obj (("wall_s", Obs.Jsonw.Float wall) :: Option.to_list l)
  in
  let gate a b =
    Obs.Report.gate ~rules:Obs.Report.history_rules ~threshold:0.05 a b
    |> List.map (fun (d : Obs.Report.delta) -> d.key)
  in
  let fig7 = Some (suites [ "fig7" ]) in
  Alcotest.(check (list string)) "same suites" [ "wall_s" ]
    (gate (entry fig7 10.0) (entry fig7 100.0));
  Alcotest.(check (list string)) "suites differ" []
    (gate (entry fig7 10.0) (entry (Some (suites [ "fig7"; "enum" ])) 100.0));
  Alcotest.(check (list string)) "baseline without suites" []
    (gate (entry None 10.0) (entry fig7 100.0))

(* --- gauges: max semantics across domains, merged by max ------------------- *)

let test_gauge_max () =
  let reg = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge reg "test.peak" in
  let domains = 4 and per = 2_000 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Obs.Metrics.max_gauge g (float_of_int ((d * per) + i))
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check (float 0.0)) "high-water mark survives the races"
    (float_of_int (domains * per))
    (Obs.Metrics.gauge_value g);
  let other = Obs.Metrics.create () in
  Obs.Metrics.set_gauge (Obs.Metrics.gauge other "test.peak") 17.0;
  let merged =
    Obs.Metrics.merge
      [ Obs.Metrics.snapshot reg; Obs.Metrics.snapshot other ]
  in
  Alcotest.(check (float 0.0)) "merge takes the max"
    (float_of_int (domains * per))
    (List.assoc "test.peak" merged.Obs.Metrics.gauges)

(* --- profile timeline (Chrome trace) ------------------------------------- *)

let with_timeline f =
  let p = Obs.Profile.enable ~timeline:true () in
  Fun.protect ~finally:(fun () -> Obs.Profile.disable ()) (fun () -> f p)

let chrome_events p =
  match
    Obs.Jsonw.of_string (Obs.Jsonw.to_string (Obs.Profile.to_chrome_json p))
  with
  | Ok (Obs.Jsonw.List events) -> events
  | Ok _ -> Alcotest.fail "trace JSON is not an array"
  | Error e -> Alcotest.failf "trace JSON invalid: %s" e

let event_str k ev =
  match Obs.Jsonw.member k ev with
  | Some (Obs.Jsonw.Str s) -> s
  | _ -> Alcotest.failf "event has no string %S" k

let event_num k ev =
  match Obs.Jsonw.member k ev with
  | Some (Obs.Jsonw.Float f) -> f
  | Some (Obs.Jsonw.Int i) -> float_of_int i
  | _ -> Alcotest.failf "event has no number %S" k

let event_path ev =
  match Obs.Jsonw.member "args" ev with
  | Some args -> event_str "path" args
  | None -> Alcotest.fail "event has no args"

let event_tid ev =
  match Obs.Jsonw.member "tid" ev with
  | Some (Obs.Jsonw.Int i) -> i
  | _ -> Alcotest.fail "event has no int tid"

let test_trace_nesting () =
  with_timeline (fun p ->
      Obs.Profile.with_phase "outer" (fun () ->
          Obs.Profile.with_phase "inner" (fun () -> ());
          Obs.Profile.with_phase "inner" (fun () -> ()));
      (try Obs.Profile.with_phase "raiser" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check (pair int int))
        "all spans kept (incl. on exception)" (4, 0)
        (Obs.Profile.timeline_counts p);
      let events = chrome_events p in
      Alcotest.(check int) "one event per span" 4 (List.length events);
      List.iter
        (fun ev ->
          List.iter
            (fun field ->
              if Obs.Jsonw.member field ev = None then
                Alcotest.failf "event missing %S" field)
            [ "name"; "ph"; "ts"; "dur"; "pid"; "tid" ];
          Alcotest.(check string) "complete event" "X" (event_str "ph" ev);
          Alcotest.(check int) "tid is the domain id"
            (Domain.self () :> int)
            (event_tid ev))
        events;
      Alcotest.(check (list (pair string string)))
        "names are last path components, nested under the parent"
        [
          ("inner", "outer/inner");
          ("inner", "outer/inner");
          ("outer", "outer");
          ("raiser", "raiser");
        ]
        (List.sort compare
           (List.map (fun ev -> (event_str "name" ev, event_path ev)) events));
      let outer = List.find (fun ev -> event_path ev = "outer") events in
      let t0 = event_num "ts" outer in
      let t1 = t0 +. event_num "dur" outer in
      List.iter
        (fun ev ->
          if event_path ev = "outer/inner" then
            Alcotest.(check bool) "inner lies within outer" true
              (event_num "ts" ev >= t0
              && event_num "ts" ev +. event_num "dur" ev <= t1 +. 1.0))
        events)

let test_trace_global_off () =
  Obs.Profile.disable ();
  (* with no profiler installed this must be a plain call *)
  let r = Obs.Profile.with_phase "nothing" (fun () -> 7) in
  Alcotest.(check int) "value passes through" 7 r;
  Alcotest.(check bool) "no profiler" true (Obs.Profile.active () = None);
  (* a timeline records nothing once its profiler is disabled *)
  let p = with_timeline Fun.id in
  Obs.Profile.with_phase "late" (fun () -> ());
  Alcotest.(check (pair int int)) "disabled: no spans" (0, 0)
    (Obs.Profile.timeline_counts p);
  (* enabled without a timeline: phases are counted, no span is kept *)
  let p = Obs.Profile.enable () in
  Fun.protect
    ~finally:(fun () -> Obs.Profile.disable ())
    (fun () ->
      Obs.Profile.with_phase "counted" (fun () -> ());
      Alcotest.(check (pair int int)) "no timeline: no spans" (0, 0)
        (Obs.Profile.timeline_counts p);
      Alcotest.(check int) "no timeline: no events" 0
        (List.length (chrome_events p));
      Alcotest.(check (list int)) "the phase is still counted" [ 1 ]
        (List.map
           (fun ph -> ph.Obs.Profile.p_count)
           (Obs.Profile.snapshot p).Obs.Profile.phases))

let test_trace_cap () =
  let cap = Obs.Profile.timeline_cap and extra = 10 in
  with_timeline (fun p ->
      Obs.Profile.with_phase "bulk" (fun () ->
          for _ = 1 to cap - 1 + extra do
            Obs.Profile.with_phase "s" (fun () -> ())
          done);
      Alcotest.(check (pair int int)) "kept, dropped" (cap, extra)
        (Obs.Profile.timeline_counts p);
      let events = chrome_events p in
      Alcotest.(check int) "one event per kept span" cap (List.length events);
      (* the outer phase started first, so it keeps its span *)
      Alcotest.(check int) "the outer phase is kept" 1
        (List.length (List.filter (fun ev -> event_path ev = "bulk") events));
      Alcotest.(check (option int)) "the phase table counts every span"
        (Some (cap - 1 + extra))
        (List.find_map
           (fun ph ->
             if ph.Obs.Profile.p_path = "bulk/s" then
               Some ph.Obs.Profile.p_count
             else None)
           (Obs.Profile.snapshot p).Obs.Profile.phases))

let test_trace_worker () =
  with_timeline (fun p ->
      let worker =
        Obs.Profile.with_phase "spawner" (fun () ->
            let base = Obs.Profile.saved_path () in
            Domain.join
              (Domain.spawn (fun () ->
                   Obs.Profile.with_base base (fun () ->
                       Obs.Profile.with_phase "work" (fun () -> ()));
                   (Domain.self () :> int))))
      in
      match
        List.filter (fun ev -> event_path ev = "spawner/work") (chrome_events p)
      with
      | [ ev ] ->
          Alcotest.(check string) "named by its own phase" "work"
            (event_str "name" ev);
          Alcotest.(check int) "tid is the worker's domain" worker
            (event_tid ev);
          Alcotest.(check bool) "not the spawner's domain" true
            (worker <> (Domain.self () :> int))
      | evs ->
          Alcotest.failf "%d events under spawner/work, expected 1"
            (List.length evs))

(* --- logger ---------------------------------------------------------------- *)

let test_log_levels () =
  let prev = Obs.Log.current_level () in
  Obs.Log.set_level (Some Obs.Log.Info);
  Alcotest.(check bool) "info enabled" true (Obs.Log.enabled Obs.Log.Info);
  Alcotest.(check bool) "debug disabled" false (Obs.Log.enabled Obs.Log.Debug);
  Alcotest.(check bool) "warn enabled" true (Obs.Log.enabled Obs.Log.Warn);
  Obs.Log.set_level None;
  Alcotest.(check bool) "off disables warn" false (Obs.Log.enabled Obs.Log.Warn);
  Alcotest.(check bool) "parse warn" true
    (Obs.Log.level_of_string "WARNING" = Some Obs.Log.Warn);
  Alcotest.(check bool) "parse junk" true (Obs.Log.level_of_string "x" = None);
  Obs.Log.set_level prev

(* --- the search funnel on a real search ----------------------------------- *)

let div_matmul_spec ~b ~h ~d =
  let bld = Graph.Build.create () in
  let x = Graph.Build.input bld "X" [| b; h |] in
  let c = Graph.Build.input bld "C" [| b; 1 |] in
  let w = Graph.Build.input bld "W" [| h; d |] in
  let y = Graph.Build.prim bld (Op.Binary Op.Div) [ x; c ] in
  let z = Graph.Build.prim bld Op.Matmul [ y; w ] in
  Graph.Build.finish bld ~outputs:[ z ]

let funnel_config ~workers spec =
  Search.Config.for_spec
    ~base:
      {
        Search.Config.default with
        Search.Config.grid_candidates = [ [| 2 |] ];
        forloop_candidates = [ [| 2 |] ];
        max_block_ops = 4;
        num_workers = workers;
        (* let a hungry worker take subtrees, so more than one worker
           can share a root's search *)
        steal_depth_cutoff = 1;
        time_budget_s = 90.0;
      }
    spec

(* Exact counts of the search_fig7 menu (grid {2}, for-loop {2}, at most
   3 block ops) on the LAX pieces of reduced RMSNorm and GatedMLP, of
   GatedMLP again under a 2 KiB shared-memory block, which exercises the
   memory check, of LoRA, whose 6400 roots fall into 3935 root classes,
   and of nTrans. The candidate counts and digests were recorded from
   the enumerator that regenerated every extension at every prefix (and,
   for LoRA and nTrans, from the ones that searched each root separately
   and evaluated every try anew), so they pin the candidate set that
   every later enumerator, the goal-distance cut included, must keep.
   The funnel and level totals were re-derived when that cut landed (it
   skips nTrans's block level and stops RMSNorm's and GatedMLP's
   prefixes that cannot reach their sqrt/silu atoms in time; LoRA's
   goal has no atom, so only its leaves short of the output are cut and
   its funnel is unchanged); the prefix engine must reproduce them at
   any worker count. *)
type pinned = {
  prog : string;
  smem : int option;
  funnel : (string * int) list;
  totals : (string * int) list;
      (** every search.block.* / search.kernel.* counter, by name *)
  cands : int;
  hashes : string;  (** digest of the candidates' sorted [Graph.hash]es *)
}

let pinned =
  [
    {
      prog = "RMSNorm";
      smem = None;
      funnel =
        [
          ("expanded", 22_383);
          ("shape_rejected", 6727);
          ("memory_rejected", 0);
          ("pruned_abstract", 6364);
          ("canonical_rejected", 5867);
          ("candidates", 0);
          ("verified", 0);
          ("duplicates", 117);
        ];
      totals =
        [
          ("search.block.expanded", 10_640);
          ("search.block.reject.canonical", 0);
          ("search.block.reject.dangling", 0);
          ("search.block.reject.duplicate", 0);
          ("search.block.reject.memory", 0);
          ("search.block.reject.phase", 0);
          ("search.block.reject.pruned", 3415);
          ("search.block.reject.shape", 4241);
          ("search.block.reject.unreachable", 2984);
          ("search.kernel.expanded", 11_743);
          ("search.kernel.reject.canonical", 5867);
          ("search.kernel.reject.duplicate", 117);
          ("search.kernel.reject.pruned", 2949);
          ("search.kernel.reject.shape", 2486);
          ("search.kernel.reject.unreachable", 212);
        ];
      cands = 0;
      hashes = "d41d8cd98f00b204e9800998ecf8427e";
    };
    {
      prog = "GatedMLP";
      smem = None;
      funnel =
        [
          ("expanded", 36_723);
          ("shape_rejected", 13_204);
          ("memory_rejected", 0);
          ("pruned_abstract", 11_196);
          ("canonical_rejected", 5434);
          ("candidates", 6);
          ("verified", 0);
          ("duplicates", 297);
        ];
      totals =
        [
          ("search.block.expanded", 32_474);
          ("search.block.reject.canonical", 3376);
          ("search.block.reject.dangling", 581);
          ("search.block.reject.duplicate", 242);
          ("search.block.reject.memory", 0);
          ("search.block.reject.phase", 0);
          ("search.block.reject.pruned", 10_334);
          ("search.block.reject.shape", 12_025);
          ("search.block.reject.unreachable", 5674);
          ("search.kernel.expanded", 4249);
          ("search.kernel.reject.canonical", 2058);
          ("search.kernel.reject.duplicate", 55);
          ("search.kernel.reject.pruned", 862);
          ("search.kernel.reject.shape", 1179);
          ("search.kernel.reject.unreachable", 35);
        ];
      cands = 6;
      hashes = "1cb32deffd1391ecdafba3cb93f9b5e0";
    };
    {
      prog = "GatedMLP";
      smem = Some 2048;
      funnel =
        [
          ("expanded", 36_510);
          ("shape_rejected", 13_119);
          ("memory_rejected", 772);
          ("pruned_abstract", 10_390);
          ("canonical_rejected", 5406);
          ("candidates", 6);
          ("verified", 0);
          ("duplicates", 295);
        ];
      totals =
        [
          ("search.block.expanded", 32_261);
          ("search.block.reject.canonical", 3348);
          ("search.block.reject.dangling", 575);
          ("search.block.reject.duplicate", 240);
          ("search.block.reject.memory", 772);
          ("search.block.reject.phase", 0);
          ("search.block.reject.pruned", 9528);
          ("search.block.reject.shape", 11_940);
          ("search.block.reject.unreachable", 5618);
          ("search.kernel.expanded", 4249);
          ("search.kernel.reject.canonical", 2058);
          ("search.kernel.reject.duplicate", 55);
          ("search.kernel.reject.pruned", 862);
          ("search.kernel.reject.shape", 1179);
          ("search.kernel.reject.unreachable", 35);
        ];
      cands = 6;
      hashes = "1cb32deffd1391ecdafba3cb93f9b5e0";
    };
    {
      prog = "LoRA";
      smem = None;
      funnel =
        [
          ("expanded", 2_003_111);
          ("shape_rejected", 1_001_360);
          ("memory_rejected", 0);
          ("pruned_abstract", 357_900);
          ("canonical_rejected", 420_130);
          ("candidates", 106);
          ("verified", 0);
          ("duplicates", 19_983);
        ];
      totals =
        [
          ("search.block.expanded", 1_860_826);
          ("search.block.reject.canonical", 337_193);
          ("search.block.reject.dangling", 181_959);
          ("search.block.reject.duplicate", 18_930);
          ("search.block.reject.memory", 0);
          ("search.block.reject.phase", 0);
          ("search.block.reject.pruned", 336_259);
          ("search.block.reject.shape", 967_614);
          ("search.block.reject.unreachable", 47);
          ("search.kernel.expanded", 142_285);
          ("search.kernel.reject.canonical", 82_937);
          ("search.kernel.reject.duplicate", 1053);
          ("search.kernel.reject.pruned", 21_641);
          ("search.kernel.reject.shape", 33_746);
          ("search.kernel.reject.unreachable", 1840);
        ];
      cands = 106;
      hashes = "1df3109911b2e646f86c000ae4a179ba";
    };
    {
      prog = "nTrans";
      smem = None;
      funnel =
        [
          ("expanded", 27);
          ("shape_rejected", 0);
          ("memory_rejected", 0);
          ("pruned_abstract", 15);
          ("canonical_rejected", 0);
          ("candidates", 0);
          ("verified", 0);
          ("duplicates", 0);
        ];
      totals =
        [
          ("search.block.expanded", 0);
          ("search.block.reject.canonical", 0);
          ("search.block.reject.dangling", 0);
          ("search.block.reject.duplicate", 0);
          ("search.block.reject.memory", 0);
          ("search.block.reject.phase", 0);
          ("search.block.reject.pruned", 0);
          ("search.block.reject.shape", 0);
          ("search.block.reject.unreachable", 0);
          ("search.kernel.expanded", 27);
          ("search.kernel.reject.canonical", 0);
          ("search.kernel.reject.duplicate", 0);
          ("search.kernel.reject.pruned", 15);
          ("search.kernel.reject.shape", 0);
          ("search.kernel.reject.unreachable", 12);
        ];
      cands = 0;
      hashes = "d41d8cd98f00b204e9800998ecf8427e";
    };
  ]

let funnel_fields (s : Search.Stats.snapshot) =
  [
    ("expanded", s.Search.Stats.expanded);
    ("shape_rejected", s.Search.Stats.shape_rejected);
    ("memory_rejected", s.Search.Stats.memory_rejected);
    ("pruned_abstract", s.Search.Stats.pruned_abstract);
    ("canonical_rejected", s.Search.Stats.canonical_rejected);
    ("candidates", s.Search.Stats.candidates);
    ("verified", s.Search.Stats.verified);
    ("duplicates", s.Search.Stats.duplicates);
  ]

(* The two levels' [search.block.*] and [search.kernel.*] counters, by
   name. *)
let level_totals (m : Obs.Metrics.snapshot) =
  let level (name, _) =
    List.exists
      (fun p ->
        String.length name > String.length p
        && String.sub name 0 (String.length p) = p)
      [ "search.block."; "search.kernel." ]
  in
  List.sort compare (List.filter level m.Obs.Metrics.counters)

(* Each funnel count that the enumerators' tallies drain, with the
   suffix of the level counters that see the same counts. *)
let funnel_levels =
  [
    ("expanded", "expanded");
    ("shape_rejected", "reject.shape");
    ("memory_rejected", "reject.memory");
    ("pruned_abstract", "reject.pruned");
    ("canonical_rejected", "reject.canonical");
    ("duplicates", "reject.duplicate");
  ]

(* Every such funnel count is the sum of its two level counters; a
   level that never cuts for a reason (the kernel level and [Memory])
   registers no counter for it. *)
let check_funnel_is_levels name funnel totals =
  List.iter
    (fun (field, suffix) ->
      let level l =
        Option.value ~default:0
          (List.assoc_opt (Printf.sprintf "search.%s.%s" l suffix) totals)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s%s is the levels' sum" name field)
        (List.assoc field funnel)
        (level "kernel" + level "block"))
    funnel_levels

let pinned_piece prog =
  let b = Option.get (Workloads.Bench_defs.by_name prog) in
  let spec, _ = b.Workloads.Bench_defs.reduced () in
  List.filter
    (fun (pc : Mirage.Partition.piece) -> pc.Mirage.Partition.lax)
    (Mirage.Partition.partition spec).Mirage.Partition.pieces

let pinned_config ~workers pspec =
  Search.Config.for_spec
    ~base:
      {
        Search.Config.default with
        Search.Config.grid_candidates = [ [| 2 |] ];
        forloop_candidates = [ [| 2 |] ];
        max_block_ops = 3;
        num_workers = workers;
        time_budget_s = 0.0;
      }
    pspec

let pinned_name prog smem workers =
  Printf.sprintf "%s%s, %d worker(s): " prog
    (match smem with Some b -> Printf.sprintf " (smem %d)" b | None -> "")
    workers

let check_pinned_counts () =
  List.iter
    (fun p ->
      let pieces = pinned_piece p.prog in
      Alcotest.(check int) (p.prog ^ ": one LAX piece") 1 (List.length pieces);
      let pspec = (List.hd pieces).Mirage.Partition.graph in
      let limits =
        let l = Gpusim.Device.limits Gpusim.Device.a100 in
        match p.smem with
        | Some b -> { l with Memory.smem_bytes_per_block = b }
        | None -> l
      in
      List.iter
        (fun workers ->
          let cfg = pinned_config ~workers pspec in
          let solver =
            Smtlite.Solver.create ~target:(Abstract.output_exprs pspec)
          in
          let stats = Search.Stats.create () in
          let cands, exhausted, crashes =
            Search.Generator.generate cfg ~spec:pspec ~solver ~stats ~limits
              ~budget:(Search.Budget.of_config cfg) ()
          in
          let name = pinned_name p.prog p.smem workers in
          Alcotest.(check bool) (name ^ "ran to completion") false
            (exhausted || crashes > 0);
          let funnel = funnel_fields (Search.Stats.snapshot stats)
          and totals =
            level_totals (Obs.Metrics.snapshot (Search.Stats.registry stats))
          in
          Alcotest.(check (list (pair string int)))
            (name ^ "funnel") p.funnel funnel;
          Alcotest.(check (list (pair string int)))
            (name ^ "level totals") p.totals totals;
          check_funnel_is_levels name funnel totals;
          Alcotest.(check int) (name ^ "candidates") p.cands
            (List.length cands);
          Alcotest.(check string) (name ^ "candidate hashes") p.hashes
            (Digest.to_hex
               (Digest.string
                  (String.concat ","
                     (List.map string_of_int
                        (List.sort compare
                           (List.map (fun (_, g) -> Graph.hash g) cands)))))))
        [ 1; 2 ])
    pinned

(* [Generator.run]'s winner on the pinned searches that have candidates,
   recorded when verification still ran as a separate stage over the
   cost-sorted candidates: the least passing candidate under (cost,
   hash, structure), thread-fused, or the spec when it is not strictly
   cheaper. Both GatedMLP searches verify a candidate that fusion leaves
   no cheaper than the spec. The limits come from the device, so the
   2 KiB search runs on an A100 whose shared memory is cut to match. *)
let pinned_winners =
  [
    ("GatedMLP", None, 16.010536334405145, true);
    ("GatedMLP", Some 2048, 16.010536334405145, true);
    ("LoRA", None, 12.016133762057878, false);
  ]

let check_pinned_winners () =
  List.iter
    (fun (prog, smem, winner_us, spec_wins) ->
      let pspec = (List.hd (pinned_piece prog)).Mirage.Partition.graph in
      let device =
        match smem with
        | Some b -> { Gpusim.Device.a100 with Gpusim.Device.smem_per_sm_bytes = b }
        | None -> Gpusim.Device.a100
      in
      List.iter
        (fun workers ->
          let o =
            Search.Generator.run ~config:(pinned_config ~workers pspec) ~device
              ~spec:pspec ()
          in
          let name = pinned_name prog smem workers in
          let best = Option.get o.Search.Generator.best in
          Alcotest.(check (float 1e-9)) (name ^ "winner cost") winner_us
            best.Search.Generator.cost.Gpusim.Cost.total_us;
          Alcotest.(check bool) (name ^ "the spec wins") spec_wins
            (Graph.equal best.Search.Generator.graph pspec);
          Alcotest.(check int) (name ^ "one candidate verified") 1
            o.Search.Generator.stats.Search.Stats.verified)
        [ 1; 2 ])
    pinned_winners

(* The enumerators count per subtree and flush batches, so every count
   must still be exact: the funnel and the level counters do not depend
   on how many workers shared the subtrees, and each funnel count the
   tallies drain is the sum of its two level counters. *)
let test_funnel_invariant () =
  let spec = div_matmul_spec ~b:4 ~h:8 ~d:16 in
  let run workers =
    Search.Generator.run ~config:(funnel_config ~workers spec)
      ~device:Gpusim.Device.a100 ~spec ()
  in
  let o = run 2 in
  let s = o.Search.Generator.stats in
  Alcotest.(check bool) "searched something" true
    (s.Search.Stats.expanded > 0);
  Alcotest.(check bool) "funnel invariant" true (Search.Stats.funnel_ok s);
  Alcotest.(check bool) "verified <= candidates" true
    (s.Search.Stats.verified <= s.Search.Stats.candidates);
  (* the fixed record is the registry's level sums, and the registry
     holds no second record of them *)
  let counters = o.Search.Generator.metrics.Obs.Metrics.counters in
  let level l suffix =
    Option.value ~default:0
      (List.assoc_opt (Printf.sprintf "search.%s.%s" l suffix) counters)
  in
  Alcotest.(check (list int)) "snapshot is the level sums"
    [
      level "kernel" "expanded" + level "block" "expanded";
      level "kernel" "reject.shape" + level "block" "reject.shape";
      level "kernel" "reject.memory" + level "block" "reject.memory";
      level "kernel" "reject.pruned" + level "block" "reject.pruned";
      level "kernel" "reject.canonical" + level "block" "reject.canonical";
      level "kernel" "reject.duplicate" + level "block" "reject.duplicate";
      List.assoc "search.candidates" counters;
    ]
    Search.Stats.
      [
        s.expanded;
        s.shape_rejected;
        s.memory_rejected;
        s.pruned_abstract;
        s.canonical_rejected;
        s.duplicates;
        s.candidates;
      ];
  Alcotest.(check bool) "no second funnel counter" false
    (List.exists
       (fun (n, _) ->
         n = "search.expanded" || n = "search.duplicates"
         || String.starts_with ~prefix:"search.reject." n)
       counters);
  let totals = level_totals o.Search.Generator.metrics in
  check_funnel_is_levels "2 workers: " (funnel_fields s) totals;
  let funnel (s : Search.Stats.snapshot) = { s with Search.Stats.elapsed_s = 0.0 } in
  List.iter
    (fun workers ->
      let o' = run workers in
      let name = Printf.sprintf "%d workers: " workers in
      Alcotest.(check string) (name ^ "same funnel")
        (Search.Stats.to_string (funnel s))
        (Search.Stats.to_string (funnel o'.Search.Generator.stats));
      let totals' = level_totals o'.Search.Generator.metrics in
      Alcotest.(check (list (pair string int)))
        (name ^ "same level counters") totals totals';
      check_funnel_is_levels name
        (funnel_fields o'.Search.Generator.stats)
        totals')
    [ 1; 4 ];
  check_pinned_counts ();
  check_pinned_winners ()

let test_report_on_file () =
  let file = Filename.temp_file "mirage_report" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      (match Obs.Report.create ~dir:file with
      | Ok _ -> Alcotest.fail "a regular file is not a run directory"
      | Error msg ->
          Alcotest.(check bool) "names the path" true
            (Astring_contains.contains msg file));
      (match Obs.Report.create ~dir:(Filename.concat file "run") with
      | Ok _ -> Alcotest.fail "a path under a regular file"
      | Error _ -> ());
      match Obs.Report.create ~dir:"" with
      | Ok _ -> Alcotest.fail "the empty path is not a run directory"
      | Error _ -> ())

(* --- hdr: bounded-relative-error latency sketch ---------------------------- *)

(* The documented contract ({!Obs.Hdr.quantile}): for samples inside
   [lo, hi] the estimate at rank [max 1 (ceil (p * n))] is within
   relative [error] of the exact sorted-sample value — across the full
   default range, six orders of magnitude. *)
let prop_hdr_quantile =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 400)
        (map
           (fun u ->
             let v = exp u in
             Float.max 1e-6 (Float.min 100.0 v))
           (float_range (log 1e-6) (log 100.0))))
  in
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"hdr quantile within documented relative error"
       ~print:(fun vs ->
         String.concat "," (List.map (Printf.sprintf "%.9g") vs))
       gen
       (fun vs ->
         let h = Obs.Hdr.create "q" in
         List.iter (Obs.Hdr.record h) vs;
         let sorted = Array.of_list (List.sort compare vs) in
         let n = Array.length sorted in
         List.for_all
           (fun p ->
             let rank =
               min n (max 1 (int_of_float (ceil (p *. float_of_int n))))
             in
             let exact = sorted.(rank - 1) in
             let est = Obs.Hdr.quantile h p in
             abs_float (est -. exact) <= (Obs.Hdr.error h *. exact) +. 1e-9)
           [ 0.5; 0.9; 0.99; 0.999 ]))

let test_hdr_bounds () =
  let h = Obs.Hdr.create ~error:0.01 ~lo:1e-6 ~hi:100.0 "b" in
  (* out-of-range values clamp into the edge buckets but min/max stay
     exact *)
  Obs.Hdr.record h 1e-9;
  Obs.Hdr.record h 1e4;
  Obs.Hdr.record h 0.5;
  Obs.Hdr.record h Float.nan;
  Alcotest.(check int) "nan ignored, three recorded" 3 (Obs.Hdr.count h);
  let s = Obs.Hdr.snapshot h in
  Alcotest.(check (float 0.0)) "true min" 1e-9 s.Obs.Hdr.vmin;
  Alcotest.(check (float 0.0)) "true max" 1e4 s.Obs.Hdr.vmax;
  let p0 = Obs.Hdr.quantile h 0.0 in
  Alcotest.(check bool) "low quantile clamped near lo" true (p0 <= 1.1e-6);
  let p1 = Obs.Hdr.quantile h 1.0 in
  Alcotest.(check bool) "high quantile clamped near hi" true (p1 >= 99.0);
  Obs.Hdr.reset h;
  Alcotest.(check int) "reset clears count" 0 (Obs.Hdr.count h);
  Alcotest.(check (float 0.0)) "reset clears quantile" 0.0
    (Obs.Hdr.quantile h 0.5)

let test_hdr_domains () =
  let h = Obs.Hdr.create "c" in
  let domains = 4 and per = 50_000 in
  (* powers of two so the concurrent CAS-summed total is exact *)
  let value i = ldexp 1.0 (-4 - (i land 7)) in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Obs.Hdr.record h (value i)
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost records" (domains * per) (Obs.Hdr.count h);
  let expect = ref 0.0 in
  for i = 1 to per do
    expect := !expect +. (float_of_int domains *. value i)
  done;
  let s = Obs.Hdr.snapshot h in
  Alcotest.(check (float 0.0)) "sum exact" !expect s.Obs.Hdr.sum;
  Alcotest.(check (float 0.0)) "max exact" (ldexp 1.0 (-4)) s.Obs.Hdr.vmax

let test_hdr_registry () =
  let r = Obs.Metrics.create () in
  let h = Obs.Metrics.hdr r ~help:"request latency" "serve.test_stage" in
  for i = 1 to 100 do
    Obs.Hdr.record h (1e-3 *. float_of_int i)
  done;
  let s = Obs.Metrics.snapshot r in
  (match List.assoc_opt "serve.test_stage" s.Obs.Metrics.hdrs with
  | None -> Alcotest.fail "hdr missing from registry snapshot"
  | Some hs -> Alcotest.(check int) "snapshot count" 100 hs.Obs.Hdr.count);
  (match
     Obs.Jsonw.member "hdr" (Obs.Metrics.to_json s)
   with
  | Some (Obs.Jsonw.Obj kvs) ->
      Alcotest.(check bool) "hdr in to_json" true
        (List.mem_assoc "serve.test_stage" kvs)
  | _ -> Alcotest.fail "no hdr object in metrics to_json");
  let text = Obs.Prom.render s in
  let contains sub =
    let ls = String.length sub and lt = String.length text in
    let rec go i = i + ls <= lt && (String.sub text i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prometheus summary rendered" true
    (contains "serve_test_stage" && contains "quantile=\"0.99\"")

(* --- journal ambient context (request ids) --------------------------------- *)

let test_journal_context () =
  let path = Filename.temp_file "mirage_journal_ctx" ".jsonl" in
  let j = Obs.Journal.create ~path () in
  Obs.Journal.set_context [ ("rid", Obs.Jsonw.Str "r-alpha") ];
  Obs.Journal.emit j ~typ:"req.a" [ ("k", Obs.Jsonw.Int 1) ];
  Obs.Journal.with_context
    [ ("rid", Obs.Jsonw.Str "r-beta") ]
    (fun () ->
      Obs.Journal.emit j ~typ:"req.b" [];
      (* an explicit event field with the same key beats the context *)
      Obs.Journal.emit j ~typ:"req.c" [ ("rid", Obs.Jsonw.Str "r-gamma") ]);
  (* previous context restored after with_context *)
  Obs.Journal.emit j ~typ:"req.d" [];
  Obs.Journal.set_context [];
  Obs.Journal.emit j ~typ:"req.e" [];
  Obs.Journal.close j;
  (match Obs.Journal.read_file path with
  | Error e -> Alcotest.failf "journal unreadable: %s" e
  | Ok events ->
      Alcotest.(check (list string))
        "rid stamped per event"
        [ "r-alpha"; "r-beta"; "r-gamma"; "r-alpha"; "" ]
        (List.map Obs.Journal.rid_of events);
      (* the forensics invariant: filtering by one id yields exactly that
         request's events *)
      let alpha =
        List.filter (fun e -> Obs.Journal.rid_of e = "r-alpha") events
      in
      Alcotest.(check (list string))
        "rid filter selects exactly its events" [ "req.a"; "req.d" ]
        (List.map Obs.Journal.typ_of alpha));
  Sys.remove path

(* --- profile: wall-time phase accounting ----------------------------------- *)

let with_ambient_profile f =
  let p = Obs.Profile.enable () in
  Fun.protect ~finally:(fun () -> Obs.Profile.disable ()) (fun () -> f p)

(* A random single-threaded phase tree: whatever the nesting, each
   phase's self time is bounded by its total, a child's total by its
   parent's, and the self times of all phases together never exceed the
   profiler's wall clock — time is attributed, never invented. *)
type ptree = Ph of string * ptree list

let gen_phase_tree =
  let open QCheck2.Gen in
  let name = map (Printf.sprintf "p%d") (int_range 0 3) in
  sized
  @@ fix (fun self n ->
         if n <= 0 then map (fun s -> Ph (s, [])) name
         else
           map2
             (fun s kids -> Ph (s, kids))
             name
             (list_size (int_range 0 3) (self (n / 3))))

let prop_profile_conservation =
  let rec show (Ph (s, kids)) =
    s ^ "(" ^ String.concat "," (List.map show kids) ^ ")"
  in
  Qseed.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"self <= total <= parent, sum of self <= wall"
       ~print:show
       (QCheck2.Gen.map (fun t -> t) gen_phase_tree)
       (fun tree ->
         with_ambient_profile (fun p ->
             let rec run (Ph (s, kids)) =
               Obs.Profile.with_phase s (fun () ->
                   (* a little attributable work *)
                   ignore (Sys.opaque_identity (Hashtbl.hash kids));
                   List.iter run kids)
             in
             run tree;
             let snap = Obs.Profile.snapshot p in
             let phases =
               List.filter
                 (fun ph -> not ph.Obs.Profile.p_overlay)
                 snap.Obs.Profile.phases
             in
             let total_of path =
               match
                 List.find_opt (fun ph -> ph.Obs.Profile.p_path = path) phases
               with
               | Some ph -> ph.Obs.Profile.p_total_s
               | None -> 0.0
             in
             let eps = 1e-9 in
             List.for_all
               (fun ph ->
                 ph.Obs.Profile.p_self_s <= ph.Obs.Profile.p_total_s +. eps
                 &&
                 match String.rindex_opt ph.Obs.Profile.p_path '/' with
                 | None -> true
                 | Some i ->
                     (* single-threaded: a child phase cannot outlive its
                        parent *)
                     ph.Obs.Profile.p_total_s
                     <= total_of (String.sub ph.Obs.Profile.p_path 0 i) +. eps)
               phases
             && List.fold_left
                  (fun acc ph -> acc +. ph.Obs.Profile.p_self_s)
                  0.0 phases
                <= snap.Obs.Profile.wall_s +. eps)))

(* Counts are exact under domain concurrency: 4 domains hammering the
   same phases and timers concurrently lose nothing. *)
let test_profile_domains () =
  with_ambient_profile (fun p ->
      let domains = 4 and per = 10_000 in
      let ds =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                (* one task phase per domain, mirroring the enumerator:
                   the batched timer is flushed inside it *)
                Obs.Profile.with_phase "outer" (fun () ->
                    let tm = Obs.Profile.timer "check" in
                    for i = 1 to per do
                      Obs.Profile.with_phase "inner" (fun () ->
                          ignore (Sys.opaque_identity i));
                      ignore (Obs.Profile.timed tm (fun () -> i land 1 = 0))
                    done;
                    Obs.Profile.flush_timer tm)))
      in
      List.iter Domain.join ds;
      let snap = Obs.Profile.snapshot p in
      let count path =
        match
          List.find_opt
            (fun ph -> ph.Obs.Profile.p_path = path)
            snap.Obs.Profile.phases
        with
        | Some ph -> ph.Obs.Profile.p_count
        | None -> -1
      in
      Alcotest.(check int) "outer count exact" domains (count "outer");
      Alcotest.(check int) "inner count exact" (domains * per)
        (count "outer/inner");
      Alcotest.(check int) "batched timer count exact" (domains * per)
        (count "outer/check"))

(* Many short batches whose first call is their costliest (a subtree's
   first prune decision) must not be charged as if every call cost as
   much: the sampled total stays within 2x of the exact one. A batch's
   Hdr observation is its own estimate: only batches that took a sample
   record one, and the median reads about [calls] cheap calls, not 0
   and not 64 calls' worth. *)
let test_timer_unbiased () =
  let spin us =
    let t_end = Unix.gettimeofday () +. (us *. 1e-6) in
    while Unix.gettimeofday () < t_end do
      ()
    done
  in
  let timers = 4000 and calls = 8 in
  let exact = ref 0.0 in
  with_ambient_profile (fun p ->
      Obs.Profile.with_phase "outer" (fun () ->
          for _ = 1 to timers do
            let tm = Obs.Profile.timer "check" in
            for i = 0 to calls - 1 do
              Obs.Profile.timed tm (fun () ->
                  let t0 = Unix.gettimeofday () in
                  spin (if i = 0 then 50.0 else 0.5);
                  exact := !exact +. (Unix.gettimeofday () -. t0))
            done;
            Obs.Profile.flush_timer tm
          done);
      let snap = Obs.Profile.snapshot p in
      let check =
        List.find
          (fun ph -> ph.Obs.Profile.p_path = "outer/check")
          snap.Obs.Profile.phases
      in
      Alcotest.(check int) "count exact" (timers * calls)
        check.Obs.Profile.p_count;
      let ratio = check.Obs.Profile.p_total_s /. !exact in
      if ratio < 0.5 || ratio > 2.0 then
        Alcotest.failf "sampled total %.4f s vs exact %.4f s (x%.2f)"
          check.Obs.Profile.p_total_s !exact ratio;
      let h = check.Obs.Profile.p_hdr in
      if h.Obs.Hdr.count = 0 || h.Obs.Hdr.count >= timers then
        Alcotest.failf "%d Hdr observations for %d batches" h.Obs.Hdr.count
          timers;
      let p50 = Obs.Hdr.snap_quantile h 0.5 in
      if p50 < 1e-6 || p50 > 20e-6 then
        Alcotest.failf "batch p50 %.1f us, expected ~%d cheap calls" (p50 *. 1e6)
          calls)

(* Disabled profiler: everything is an inert no-op and records nothing. *)
let test_profile_disabled () =
  Obs.Profile.disable ();
  Obs.Profile.with_phase "ghost" (fun () -> ());
  Obs.Profile.note "ghost.note" 1.0;
  Alcotest.(check bool) "no ambient profiler" true (Obs.Profile.active () = None);
  (* and a fresh profiler saw none of it *)
  with_ambient_profile (fun p ->
      Alcotest.(check int) "fresh profiler empty" 0
        (List.length (Obs.Profile.snapshot p).Obs.Profile.phases))

(* snapshot_json round-trips through the analyzer: render succeeds and
   coverage is computable. A report written when the profile also
   carried a branching factor and prune rules renders the same table. *)
let test_profile_json () =
  with_ambient_profile (fun p ->
      Obs.Profile.with_phase "root" (fun () ->
          Obs.Profile.with_phase "a" (fun () -> ignore (Sys.opaque_identity 1));
          Obs.Profile.with_phase "b" (fun () -> ignore (Sys.opaque_identity 2)));
      let j = Obs.Profile.snapshot_json (Obs.Profile.snapshot p) in
      (match Obs.Jsonw.member "schema" j with
      | Some (Obs.Jsonw.Str s) ->
          Alcotest.(check string) "schema tag" Obs.Profile.schema s
      | _ -> Alcotest.fail "no schema tag");
      let rendered j =
        match Obs.Profile.render j with
        | Ok text -> text
        | Error m -> Alcotest.failf "render failed: %s" m
      in
      let text = rendered j in
      Alcotest.(check bool) "render mentions root" true
        (let sub = "root" in
         let ls = String.length sub and lt = String.length text in
         let rec go i =
           i + ls <= lt && (String.sub text i ls = sub || go (i + 1))
         in
         go 0);
      (match j with
      | Obs.Jsonw.Obj fields ->
          let old =
            Obs.Jsonw.Obj
              (fields
              @ [
                  ("branching", Obs.Jsonw.Float 65.9);
                  ( "prune_rules",
                    Obs.Jsonw.List
                      [
                        Obs.Jsonw.Obj
                          [
                            ("rule", Obs.Jsonw.Str "shape");
                            ("fires", Obs.Jsonw.Int 12);
                            ("est_saved_expansions", Obs.Jsonw.Float 6.88e14);
                            ( "by_remaining",
                              Obs.Jsonw.List [ Obs.Jsonw.Int 0; Obs.Jsonw.Int 12 ]
                            );
                          ];
                      ] );
                ])
          in
          Alcotest.(check string) "an old report renders the same table" text
            (rendered old)
      | _ -> Alcotest.fail "snapshot_json is not an object");
      match Obs.Profile.coverage j with
      | Some (root, cov) ->
          Alcotest.(check string) "dominant root" "root" root;
          Alcotest.(check bool) "coverage within [0,1]" true
            (cov >= 0.0 && cov <= 1.0)
      | None -> Alcotest.fail "no coverage")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter exact across domains" `Quick
            test_counter_domains;
          Alcotest.test_case "merge sums by name" `Quick test_metrics_merge;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip with escapes" `Quick
            test_json_roundtrip;
          Alcotest.test_case "parser rejects invalid" `Quick
            test_json_parse_errors;
          prop_jsonw_roundtrip;
          prop_jsonw_float_printf;
        ] );
      ( "journal",
        [
          Alcotest.test_case "4-domain round-trip, no lost or torn events"
            `Quick test_journal_domains;
          Alcotest.test_case "no-op when disabled" `Quick
            test_journal_global_off;
          Alcotest.test_case "ambient context stamps request ids" `Quick
            test_journal_context;
        ] );
      ( "hdr",
        [
          prop_hdr_quantile;
          Alcotest.test_case "clamping, nan, reset" `Quick test_hdr_bounds;
          Alcotest.test_case "exact count/sum across domains" `Quick
            test_hdr_domains;
          Alcotest.test_case "registry snapshot, json, prometheus" `Quick
            test_hdr_registry;
        ] );
      ( "report",
        [
          Alcotest.test_case "numeric diff and regression gate" `Quick
            test_report_gate;
          Alcotest.test_case "every gate row's slack, both directions" `Quick
            test_gate_rows;
          Alcotest.test_case "gate rows cover the newest history entry" `Quick
            test_gate_covers_history;
          Alcotest.test_case "history pairs replay to the pinned verdicts"
            `Quick test_gate_replay;
          Alcotest.test_case "wall_s gated only for the same suites" `Quick
            test_gate_wall_suites;
          Alcotest.test_case "a regular file is refused" `Quick
            test_report_on_file;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "max across domains, merged by max" `Quick
            test_gauge_max;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and chrome JSON" `Quick
            test_trace_nesting;
          Alcotest.test_case "no-op when disabled" `Quick
            test_trace_global_off;
          Alcotest.test_case "bounded by the cap" `Quick test_trace_cap;
          Alcotest.test_case "worker spans nest under the spawner" `Quick
            test_trace_worker;
        ] );
      ( "log",
        [ Alcotest.test_case "level gating" `Quick test_log_levels ] );
      ( "funnel",
        [
          Alcotest.test_case "invariant on a small search" `Quick
            test_funnel_invariant;
        ] );
      ( "profile",
        [
          prop_profile_conservation;
          Alcotest.test_case "counts exact across 4 domains" `Quick
            test_profile_domains;
          Alcotest.test_case "sampled timers unbiased over short batches"
            `Quick test_timer_unbiased;
          Alcotest.test_case "no-op when disabled" `Quick
            test_profile_disabled;
          Alcotest.test_case "snapshot json renders and covers" `Quick
            test_profile_json;
        ] );
    ]
