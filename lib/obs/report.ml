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

let default_gate_keys = [ "cost.optimized_us"; "timing.wall_s" ]

let gate ?(keys = default_gate_keys) ~threshold a b =
  num_deltas a b
  |> List.filter (fun d -> List.mem d.key keys && rel d > threshold)
