(* Request identity. Every request frame carries a "request_id": the
   client mints one per call (so retries are distinguishable and the
   caller can grep its own id out of server forensics); the server
   mints one for bare frames so every journal line is attributable
   either way. Ids are short hex digests — unique across processes
   (pid + time + per-process counter), free of characters that need
   quoting in JSON, shells or file names, so a journal line or a
   response can carry one verbatim and a grep for it needs no
   escaping. *)

module J = Obs.Jsonw

let field = "request_id"
let seq = Atomic.make 0

let fresh () =
  let raw =
    Printf.sprintf "%d.%.9f.%d"
      (Unix.getpid ())
      (Unix.gettimeofday ())
      (Atomic.fetch_and_add seq 1)
  in
  "r" ^ String.sub (Digest.to_hex (Digest.string raw)) 0 15

let valid s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | ':' | '-' -> true
         | _ -> false)
       s

let of_request req =
  match J.member field req with
  | Some (J.Str s) when valid s -> Some s
  | _ -> None

(* Attach an id to a request that lacks one; an existing (valid) id is
   kept so client-minted ids survive the trip. *)
let ensure req =
  match of_request req with
  | Some id -> (req, id)
  | None -> (
      let id = fresh () in
      match req with
      | J.Obj fields ->
          (J.Obj (List.remove_assoc field fields @ [ (field, J.Str id) ]), id)
      | j -> (j, id))
