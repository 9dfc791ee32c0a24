type t = {
  rdir : string;
  mutable sections : (string * Jsonw.t) list;  (** reversed *)
}

let schema = "mirage.run_report.v1"

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir =
  match
    mkdir_p dir;
    Sys.is_directory dir
  with
  | true -> Ok { rdir = dir; sections = [] }
  | false -> Error (Printf.sprintf "%s: not a directory" dir)
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" dir (Unix.error_message e))
  | exception Sys_error msg -> Error msg

let dir t = t.rdir

let add t name v =
  if List.mem_assoc name t.sections then
    t.sections <-
      List.map (fun (n, old) -> (n, if n = name then v else old)) t.sections
  else t.sections <- (name, v) :: t.sections

let path t = Filename.concat t.rdir "report.json"

let write t =
  Fault.trip "report.finalize";
  Jsonw.to_file ~pretty:true (path t)
    (Jsonw.Obj (("schema", Jsonw.Str schema) :: List.rev t.sections))

let env_json () =
  let mirage_vars =
    (* The documented knob surface is MIRAGE_*; capture whatever of it is
       set so a report pins down the run's configuration sources. *)
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i when String.length kv > 7 && String.sub kv 0 7 = "MIRAGE_"
             ->
               Some
                 ( String.sub kv 0 i,
                   Jsonw.Str
                     (String.sub kv (i + 1) (String.length kv - i - 1)) )
           | _ -> None)
    |> List.sort compare
  in
  Jsonw.Obj
    [
      ("ocaml", Jsonw.Str Sys.ocaml_version);
      ("os_type", Jsonw.Str Sys.os_type);
      ("word_size", Jsonw.Int Sys.word_size);
      ("domains_recommended", Jsonw.Int (Domain.recommended_domain_count ()));
      ("cwd", Jsonw.Str (Sys.getcwd ()));
      ( "argv",
        Jsonw.List
          (Array.to_list (Array.map (fun a -> Jsonw.Str a) Sys.argv)) );
      ("mirage_env", Jsonw.Obj mirage_vars);
    ]

let load p =
  let file =
    if Sys.file_exists p && Sys.is_directory p then
      Filename.concat p "report.json"
    else p
  in
  match open_in_bin file with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let s = really_input_string ic (in_channel_length ic) in
          Jsonw.of_string s)

(* ------------------------------------------------------------------ *)
(* Numeric comparison                                                  *)
(* ------------------------------------------------------------------ *)

type delta = { key : string; va : float; vb : float }

let rel d =
  if d.va = 0.0 then if d.vb = 0.0 then 0.0 else Float.infinity
  else (d.vb -. d.va) /. Float.abs d.va

let as_num = function
  | Jsonw.Int i -> Some (float_of_int i)
  | Jsonw.Float f -> Some f
  | _ -> None

let num_deltas a b =
  let out = ref [] in
  let rec walk prefix a b =
    match (a, b) with
    | Jsonw.Obj fa, Jsonw.Obj fb ->
        List.iter
          (fun (k, va) ->
            match List.assoc_opt k fb with
            | Some vb ->
                let key = if prefix = "" then k else prefix ^ "." ^ k in
                walk key va vb
            | None -> ())
          fa
    | _ -> (
        match (as_num a, as_num b) with
        | Some va, Some vb -> out := { key = prefix; va; vb } :: !out
        | _ -> ())
  in
  walk "" a b;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Regression gate: one table of rules                                 *)
(* ------------------------------------------------------------------ *)

type worse = Higher | Lower | Recorded
type slack = Gate of float | Fixed of float

type rule = {
  section : string;
  suffix : string;
  worse : worse;
  rel_slack : slack;
  abs_slack : float;
  same : string option;
}

let row ?(rel = Gate 10.0) ?(abs = 0.0) ?same section suffix worse =
  { section; suffix; worse; rel_slack = rel; abs_slack = abs; same }

let recorded section suffix = row section suffix Recorded

(* Wall-clock keys get 10x the threshold plus an absolute slack, since
   the host's load moves them; deterministic keys are held tight. *)
let history_rules =
  [
    (* a run that adds a suite is slower by construction *)
    row "" "wall_s" Higher ~abs:2.0 ~same:"suites";
    recorded "" "ts";
    row "costs" "mirage_us" Higher ~rel:(Gate 1.0);
    row "verify" "fast_over_ref" Higher ~abs:0.02;
    (* the warm read itself: a cold search the goal-distance cut made
       cheap would move a warm/cold ratio with no cache change *)
    row "serve" "warm_ms" Higher ~abs:2.0;
    (* stage quantiles: socket jitter dwarfs the microsecond stages *)
    row "serve" "_us" Higher ~abs:100_000.0;
    row "serve" "hit_rate" Lower ~abs:0.02;
    (* a miss over its search, geomean over the six benchmarks (the
       per-benchmark ratios are in the --json rows); runs spread over
       ~0.9, most of it QKNorm's, whose search is tens of microseconds *)
    row "serve" "cold_over_direct" Higher ~rel:(Fixed 0.0) ~abs:1.0;
    (* allocation and query counts are deterministic: 5 % whatever the
       threshold; a search's expansions have no slack at all *)
    row "enum" "minor_words" Higher ~rel:(Fixed 0.05);
    row "enum" "searches_per_root" Higher ~rel:(Fixed 0.05);
    row "enum" "solver_queries" Higher ~rel:(Fixed 0.05);
    row "enum" "expanded" Higher ~rel:(Fixed 0.0);
    (* the words a search allocates before it explores anything *)
    row "enum" "fixed_words" Higher ~rel:(Fixed 0.05);
    (* root enumeration, a few ms on the default menu *)
    row "enum" "roots_ms" Higher ~abs:5.0;
    (* a ~0.15 s search swings by half with the host's load *)
    row "enum" "gen_1d_s" Higher ~abs:0.25;
    row "enum" "speedup_4d" Lower ~abs:0.5;
    row "enum" "speedup_8d" Lower ~abs:0.5;
    recorded "enum" "speedup_2d" (* host-dependent *);
    (* what a second worker costs the short Fig. 7 searches: a median of
       five pairs of ms-long searches, so only a move past 0.25 counts *)
    row "enum" "two_over_one" Higher ~abs:0.25;
    (* keys of the entries before the per-search totals and the warm
       read *)
    row "enum" "minor_words_per_expansion" Higher ~rel:(Fixed 0.05);
    row "enum" "solver_queries_per_expansion" Higher ~rel:(Fixed 0.05);
    row "enum" "expansions_per_s" Lower;
    row "serve" "warm_over_cold" Higher ~abs:0.02;
    row "codegen" "c_lines" Higher ~rel:(Fixed 0.0);
    row "codegen" "lower_compile_s" Higher ~abs:0.25;
    recorded "codegen" "kernel_over_interp";
    (* [bench loc]'s line counts of lib/: tracked, not gated *)
    recorded "loc" "";
  ]

let diff_rules =
  [
    row "cost" "optimized_us" Higher ~rel:(Gate 1.0);
    row "timing" "wall_s" Higher ~rel:(Gate 1.0);
  ]

let split key =
  match String.index_opt key '.' with
  | None -> ("", key)
  | Some i ->
      (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))

let matching rules key =
  let section, rest = split key in
  List.filter
    (fun r -> r.section = section && String.ends_with ~suffix:r.suffix rest)
    rules

let slack_frac ~threshold r =
  match r.rel_slack with Gate m -> m *. threshold | Fixed f -> f

let violates ~threshold r d =
  let worse =
    match r.worse with
    | Higher -> d.vb -. d.va
    | Lower -> d.va -. d.vb
    | Recorded -> Float.neg_infinity
  in
  d.va > 0.0 && worse > slack_frac ~threshold r *. d.va && worse > r.abs_slack

let gate ?(rules = diff_rules) ~threshold a b =
  let applies r =
    match r.same with
    | None -> true
    | Some field -> (
        match Jsonw.member field a with
        | Some v -> Jsonw.member field b = Some v
        | None -> false)
  in
  num_deltas a b
  |> List.filter (fun d ->
         match matching rules d.key with
         | r :: _ -> applies r && violates ~threshold r d
         | [] -> false)

let explain ?(rules = diff_rules) ~threshold d =
  let bound =
    match matching rules d.key with
    | [] -> ""
    | r :: _ ->
        let sign = if r.worse = Lower then -1.0 else 1.0 in
        Printf.sprintf ", threshold %.1f%%%s"
          (sign *. 100.0 *. slack_frac ~threshold r)
          (if r.abs_slack = 0.0 then ""
           else Printf.sprintf " and %+g" (sign *. r.abs_slack))
  in
  Printf.sprintf "%.6g -> %.6g (%+.1f%%%s)" d.va d.vb (100.0 *. rel d) bound
