(** Admission control for the serving tier: bounded live connections
    and bounded search-queue depth. Every rejection is typed
    ["overloaded"] and carries a [retry_after_s] hint; all decisions
    are counted under [service.admit.*] and journaled
    ([admit.reject]).

    Both gates are counting semaphore-style check-in / check-out pairs
    ({!try_conn}/{!conn_done}, {!try_queue}/{!queue_done}).
    Thread-safe. *)

type rejection = {
  kind : string;  (** ["overloaded"] *)
  retry_after_s : float;  (** when it is worth trying again *)
  detail : string;
}

type decision = Admitted | Rejected of rejection

type t

val create :
  ?registry:Obs.Metrics.t ->
  ?max_connections:int ->
  ?max_queue_depth:int ->
  ?retry_after_s:float ->
  unit ->
  t
(** [max_connections] (default 64) bounds concurrently handled
    connections; [max_queue_depth] (default 64) bounds distinct
    searches waiting for a search slot; 0 disables either bound.
    [retry_after_s] (default 0.5) is the hint on overload
    rejections. *)

val try_conn : t -> decision
(** Admit one connection, or reject "overloaded". An [Admitted] must be
    paired with {!conn_done}. *)

val conn_done : t -> unit

val try_queue : t -> decision
(** Admit one search into the slot queue, or reject "overloaded". An
    [Admitted] must be paired with {!queue_done} (after the slot is
    acquired or the wait abandoned). *)

val queue_done : t -> unit

val live_conns : t -> int
val queue_depth : t -> int

val status_json : t -> Obs.Jsonw.t
(** The admission block of the server's [status] response: live and
    maximum connections, queue depth and its bound. *)
