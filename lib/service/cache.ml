(* Two-tier fingerprint-keyed result store.

   Tier 1 is a small in-memory LRU (assoc list, most-recent first —
   capacities are tens of entries, so O(n) moves are noise next to the
   searches the cache elides). Tier 2 is a content-addressed directory:

     <dir>/<fp[0:2]>/<fp>/result.json

   Each result.json is a schema-versioned envelope around the caller's
   payload. Writes are crash-safe: the bytes are written to a temp file
   in the final directory, fsynced, renamed over the destination, and
   the directory itself is fsynced — a kill -9 at any point leaves
   either the old entry, the new entry, or an orphaned temp file, never
   a torn result.json served as truth. A startup recovery sweep
   quarantines whatever a crash did leave behind (orphaned temps,
   truncated or foreign envelopes) so the store is clean before the
   first request; a torn or tampered entry found later at read time is
   quarantined the same way (renamed to result.json.quarantined next to
   where it lay, for forensics) and reported as a miss instead of
   crashing the daemon.

   The disk tier can carry a byte cap ([max_disk_bytes]): stores that
   push the tier over it evict the least-recently-used entries (disk
   hits refresh mtime, so mtime order is access order). A disk that
   runs out of space (ENOSPC) flips the store into memory-only mode —
   flagged through the PR 3 degradation registry and the
   service.cache.mem_only gauge — instead of failing every request.

   All traffic is counted in the Obs metrics registry under
   service.cache.*. *)

module J = Obs.Jsonw

let entry_schema = "mirage.service.result.v1"

let tmp_prefix = ".result.json.tmp."

type t = {
  dir : string;
  mem_capacity : int;
  max_disk_bytes : int;  (* 0 = unlimited *)
  lock : Mutex.t;
  wlock : Mutex.t;
      (* serializes disk writes; a write holds [lock] only to rename and
         count, so a find never waits for a write's fsync *)
  mutable mem : (string * J.t) list;  (* most-recent first *)
  mutable disk_bytes : int;
  mutable mem_only : bool;  (* ENOSPC degradation: stop touching disk *)
  c_hit_mem : Obs.Metrics.counter;
  c_hit_disk : Obs.Metrics.counter;
  c_miss : Obs.Metrics.counter;
  c_store : Obs.Metrics.counter;
  c_evict : Obs.Metrics.counter;
  c_evict_disk : Obs.Metrics.counter;
  c_quarantine : Obs.Metrics.counter;
  c_recovered : Obs.Metrics.counter;
  g_disk_bytes : Obs.Metrics.gauge;
  g_mem_only : Obs.Metrics.gauge;
}

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir t = t.dir

let entry_dir t fp =
  Filename.concat
    (Filename.concat t.dir (String.sub (fp ^ "00") 0 2))
    fp

let entry_path t fp = Filename.concat (entry_dir t fp) "result.json"

let file_size path = try (Unix.stat path).Unix.st_size with _ -> 0

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let set_disk_bytes_locked t v =
  t.disk_bytes <- max 0 v;
  Obs.Metrics.set_gauge t.g_disk_bytes (float_of_int t.disk_bytes)

(* --- in-memory tier (caller holds t.lock) --------------------------- *)

let mem_find_locked t fp =
  match List.assoc_opt fp t.mem with
  | None -> None
  | Some v ->
      t.mem <- (fp, v) :: List.remove_assoc fp t.mem;
      Some v

let mem_insert_locked t fp v =
  t.mem <- (fp, v) :: List.remove_assoc fp t.mem;
  let rec trim i = function
    | [] -> []
    | _ :: rest when i >= t.mem_capacity ->
        Obs.Metrics.bump t.c_evict;
        trim (i + 1) rest
    | x :: rest -> x :: trim (i + 1) rest
  in
  t.mem <- trim 0 t.mem

(* --- quarantine ------------------------------------------------------ *)

let quarantine_locked t fp ~reason =
  Obs.Metrics.bump t.c_quarantine;
  t.mem <- List.remove_assoc fp t.mem;
  let path = entry_path t fp in
  Obs.Log.warn (fun m ->
      m "service.cache: quarantining %s: %s" path reason);
  Obs.Journal.event "cache.quarantine"
    [ ("fingerprint", J.Str fp); ("reason", J.Str reason) ];
  if Sys.file_exists path then begin
    set_disk_bytes_locked t (t.disk_bytes - file_size path);
    try Sys.rename path (path ^ ".quarantined")
    with _ -> ( try Sys.remove path with _ -> ())
  end

let quarantine t fp ~reason =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> quarantine_locked t fp ~reason)

(* --- disk tier ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Validate everything about the envelope before trusting it; any defect
   is a quarantine, never an exception escaping to the caller. *)
let disk_find_locked t fp =
  let path = entry_path t fp in
  if t.mem_only || not (Sys.file_exists path) then None
  else
    let bad reason =
      quarantine_locked t fp ~reason;
      None
    in
    match read_file path with
    | exception e -> bad (Printf.sprintf "unreadable: %s" (Printexc.to_string e))
    | s -> (
        match J.of_string s with
        | Error msg -> bad (Printf.sprintf "unparsable: %s" msg)
        | Ok j -> (
            match (J.member "schema" j, J.member "fingerprint" j) with
            | Some (J.Str sch), _ when sch <> entry_schema ->
                bad (Printf.sprintf "schema %S, want %S" sch entry_schema)
            | _, Some (J.Str f) when f <> fp ->
                bad (Printf.sprintf "fingerprint mismatch: entry says %s" f)
            | Some (J.Str _), Some (J.Str _) -> (
                match J.member "payload" j with
                | Some payload ->
                    (* refresh mtime: disk LRU order is access order *)
                    (try Unix.utimes path 0.0 0.0 with _ -> ());
                    Some payload
                | None -> bad "no payload field")
            | _ -> bad "missing schema or fingerprint field"))

(* Every (fingerprint, result.json) currently on disk, with size and
   mtime — the working set the byte cap evicts from. *)
let disk_entries_locked t =
  let acc = ref [] in
  (try
     Array.iter
       (fun shard ->
         let sd = Filename.concat t.dir shard in
         if String.length shard = 2 && Sys.is_directory sd then
           Array.iter
             (fun fp ->
               let path =
                 Filename.concat (Filename.concat sd fp) "result.json"
               in
               match Unix.stat path with
               | st -> acc := (fp, path, st.Unix.st_size, st.Unix.st_mtime) :: !acc
               | exception _ -> ())
             (Sys.readdir sd))
       (Sys.readdir t.dir)
   with Sys_error _ -> ());
  !acc

(* Evict least-recently-used disk entries until the tier fits the cap.
   [keep] (the entry just stored) is never evicted — a store must not
   immediately evict its own result. *)
let enforce_cap_locked t ~keep =
  if t.max_disk_bytes > 0 && t.disk_bytes > t.max_disk_bytes then begin
    let entries =
      List.filter (fun (fp, _, _, _) -> fp <> keep) (disk_entries_locked t)
      |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare a b)
    in
    let rec evict = function
      | [] -> ()
      | _ when t.disk_bytes <= t.max_disk_bytes -> ()
      | (fp, path, size, _) :: rest ->
          (try
             Sys.remove path;
             Obs.Metrics.bump t.c_evict_disk;
             Obs.Journal.event "cache.evict_disk"
               [ ("fingerprint", J.Str fp); ("bytes", J.Int size) ];
             set_disk_bytes_locked t (t.disk_bytes - size);
             (* tidy the now-empty entry directory; best effort *)
             try Unix.rmdir (Filename.dirname path) with _ -> ()
           with _ -> ());
          evict rest
    in
    evict entries
  end

(* --- crash recovery --------------------------------------------------- *)

(* Startup sweep: quarantine orphaned temp files (a crash between write
   and rename) and truncated/foreign envelopes (a crash that predates
   fsync-before-rename, or a tampered store), and take stock of the
   tier's byte occupancy. Runs before the first request, so the store
   the daemon serves from is known-good. *)
let recover_locked t =
  let quarantine_dir = Filename.concat t.dir "quarantine" in
  let orphan path =
    Obs.Metrics.bump t.c_recovered;
    Obs.Log.warn (fun m -> m "service.cache: recovering orphan %s" path);
    Obs.Journal.event "cache.recover_orphan" [ ("path", J.Str path) ];
    (try mkdir_p quarantine_dir with _ -> ());
    let dst =
      Filename.concat quarantine_dir
        (Printf.sprintf "%s.%d" (Filename.basename path) (Unix.getpid ()))
    in
    try Sys.rename path dst with _ -> ( try Sys.remove path with _ -> ())
  in
  let bytes = ref 0 in
  (try
     Array.iter
       (fun shard ->
         let sd = Filename.concat t.dir shard in
         if String.length shard = 2 && Sys.is_directory sd then
           Array.iter
             (fun fp ->
               let ed = Filename.concat sd fp in
               if Sys.is_directory ed then
                 Array.iter
                   (fun f ->
                     let path = Filename.concat ed f in
                     if has_prefix tmp_prefix f then orphan path
                     else if f = "result.json" then begin
                       (* a truncated or foreign envelope is quarantined
                          now, not discovered mid-request later *)
                       let valid =
                         match J.of_string (read_file path) with
                         | exception _ -> false
                         | Error _ -> false
                         | Ok j -> (
                             match
                               (J.member "schema" j, J.member "fingerprint" j)
                             with
                             | Some (J.Str sch), Some (J.Str f') ->
                                 sch = entry_schema && f' = fp
                             | _ -> false)
                       in
                       if valid then bytes := !bytes + file_size path
                       else quarantine_locked t fp ~reason:"recovery sweep"
                     end)
                   (Sys.readdir ed))
             (Sys.readdir sd))
       (Sys.readdir t.dir)
   with Sys_error _ -> ());
  set_disk_bytes_locked t !bytes;
  enforce_cap_locked t ~keep:""

let create ?(mem_capacity = 64) ?(registry = Obs.Metrics.default ())
    ?(max_disk_bytes = 0) ?(recover = true) ~dir () =
  mkdir_p dir;
  let c name help = Obs.Metrics.counter registry ~help name in
  let t =
    {
      dir;
      mem_capacity = max 1 mem_capacity;
      max_disk_bytes;
      lock = Mutex.create ();
      wlock = Mutex.create ();
      mem = [];
      disk_bytes = 0;
      mem_only = false;
      c_hit_mem = c "service.cache.hit.mem" "result served from the in-memory tier";
      c_hit_disk = c "service.cache.hit.disk" "result served from the on-disk tier";
      c_miss = c "service.cache.miss" "fingerprint not present in either tier";
      c_store = c "service.cache.store" "results written to the store";
      c_evict = c "service.cache.evict" "in-memory LRU evictions";
      c_evict_disk =
        c "service.cache.evict.disk" "on-disk entries evicted by the byte cap";
      c_quarantine =
        c "service.cache.quarantine"
          "corrupted on-disk entries moved aside instead of served";
      c_recovered =
        c "service.cache.recovered"
          "orphaned temp files swept aside by startup recovery";
      g_disk_bytes =
        Obs.Metrics.gauge registry ~help:"bytes in the on-disk tier"
          "service.cache.disk_bytes";
      g_mem_only =
        Obs.Metrics.gauge registry
          ~help:"1 when ENOSPC degraded the store to memory-only"
          "service.cache.mem_only";
    }
  in
  if recover then begin
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> recover_locked t)
  end;
  t

(* --- public API ------------------------------------------------------ *)

let find t fp =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match mem_find_locked t fp with
      | Some v ->
          Obs.Metrics.bump t.c_hit_mem;
          Some v
      | None -> (
          match disk_find_locked t fp with
          | Some v ->
              Obs.Metrics.bump t.c_hit_disk;
              mem_insert_locked t fp v;
              Some v
          | None ->
              Obs.Metrics.bump t.c_miss;
              None))

let envelope fp payload =
  J.Obj
    [
      ("schema", J.Str entry_schema);
      ("fingerprint", J.Str fp);
      ("payload", payload);
    ]

(* Durable atomic write, in two steps: bytes → temp file → fsync(file)
   here, then rename → fsync(directory) in [store]. Any crash leaves the
   old entry or the new one; the worst residue is a temp file the next
   startup sweep quarantines. Returns the temp file and its size. *)
let write_temp dir json =
  let tmp =
    Filename.concat dir (Printf.sprintf "%s%d" tmp_prefix (Unix.getpid ()))
  in
  let s = J.to_string json in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with _ -> ())
       (fun () ->
         let n = String.length s in
         let off = ref 0 in
         while !off < n do
           off := !off + Unix.write_substring fd s !off (n - !off)
         done;
         Unix.fsync fd)
   with e ->
     (try Sys.remove tmp with _ -> ());
     raise e);
  (tmp, String.length s)

let fsync_dir dir =
  try
    let dfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close dfd with _ -> ())
      (fun () -> Unix.fsync dfd)
  with _ -> () (* directory fsync is a durability nicety, never fatal *)

let enter_mem_only_locked t reason =
  if not t.mem_only then begin
    t.mem_only <- true;
    Obs.Metrics.set_gauge t.g_mem_only 1.0;
    Obs.Budget.degrade "service.cache.enospc";
    Obs.Journal.event "cache.mem_only" [ ("reason", J.Str reason) ];
    Obs.Log.warn (fun m ->
        m "service.cache: disk full (%s); degrading to memory-only mode"
          reason)
  end

(* The memory insert and the counts take [lock]; the disk write takes
   [wlock], and [lock] again only around the rename, so finds are served
   meanwhile and writers never share a temp file. *)
let store t fp payload =
  let to_disk =
    Mutex.protect t.lock (fun () ->
        Obs.Metrics.bump t.c_store;
        mem_insert_locked t fp payload;
        not t.mem_only)
  in
  if to_disk then
    Mutex.protect t.wlock (fun () ->
        let d = entry_dir t fp in
        let path = entry_path t fp in
        try
          Obs.Fault.trip "cache.enospc";
          mkdir_p d;
          let tmp, written = write_temp d (envelope fp payload) in
          Mutex.protect t.lock (fun () ->
              let old = file_size path in
              (try Sys.rename tmp path
               with e ->
                 (try Sys.remove tmp with _ -> ());
                 raise e);
              set_disk_bytes_locked t (t.disk_bytes - old + written);
              enforce_cap_locked t ~keep:fp);
          fsync_dir d
        with
        | Obs.Fault.Injected _ | Unix.Unix_error (Unix.ENOSPC, _, _) ->
            (* no space: serve from memory, never crash the daemon *)
            Mutex.protect t.lock (fun () -> enter_mem_only_locked t "ENOSPC")
        | e ->
            (* any other store failure degrades (the next request
               re-searches) but must never take the daemon down *)
            Obs.Budget.degrade "service.cache.write";
            Obs.Log.warn (fun m ->
                m "service.cache: store %s failed: %s" fp
                  (Printexc.to_string e)))

let remember t fp payload =
  Mutex.protect t.lock (fun () -> mem_insert_locked t fp payload)

let clear_mem t =
  Mutex.lock t.lock;
  t.mem <- [];
  Mutex.unlock t.lock

let mem_entries t =
  Mutex.lock t.lock;
  let n = List.length t.mem in
  Mutex.unlock t.lock;
  n

let disk_entries t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> List.length (disk_entries_locked t))

let disk_bytes t =
  Mutex.lock t.lock;
  let b = t.disk_bytes in
  Mutex.unlock t.lock;
  b

let mem_only t =
  Mutex.lock t.lock;
  let b = t.mem_only in
  Mutex.unlock t.lock;
  b
