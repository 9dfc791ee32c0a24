(** Request ids: the trace handle joining a client call to its server
    dispatch, single-flight coalescing, cache activity and the search's
    journal events. {!Client} mints one per request; the server mints one
    for bare frames, so every journal event carries a [rid]. *)

val field : string
(** The request-frame key, ["request_id"]. *)

val fresh : unit -> string
(** A new process-unique id: 16 chars, [[a-z0-9]], leading ['r']. *)

val valid : string -> bool
(** 1–64 chars of [[A-Za-z0-9._:-]] — safe verbatim in JSON journal
    lines, shells and file names. *)

val of_request : Obs.Jsonw.t -> string option
(** The frame's valid request id, if any. *)

val ensure : Obs.Jsonw.t -> Obs.Jsonw.t * string
(** Return the request carrying an id, minting one if absent (or
    replacing an invalid one). *)
