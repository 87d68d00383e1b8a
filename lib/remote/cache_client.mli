(** Client side of the shared cache: a {!Cache.ops} that reads through
    a remote service into a local store.

    Lookup order: local store first (hits cost nothing on the wire),
    then the service; a remote hit is written back locally so the next
    probe stays local.  Stores go to both — the local write is
    unconditional, the remote put is best-effort.  Invalidation is
    local only: a corrupt object is a local observation, and the keyed
    entry will be refetched and re-validated anyway.

    {b Degradation}: any transport failure — refused dial, reset,
    damage, deadline — parks the client in degraded mode: operations
    fall back to the local store alone, a warning is logged once, and
    the build continues.  Redials follow {!Support.Backoff}, so a
    service that comes back is picked up without hammering it while it
    is down.  The driver never observes an exception from these ops. *)

type t

(** [create ?local ?tick ?chaos ?timeout_s ?log addr] — a client of the
    service at [addr].  [local] is the read-through store (typically
    [Cache.ops (Cache.create fs)]); omitted, the client is
    remote-only.  [tick] runs inside every wait loop — the in-process
    chaos harness uses it to pump the service's reactor from the same
    domain.  [timeout_s] bounds each remote operation (default 5 s). *)
val create :
  ?local:Cache.ops ->
  ?tick:(unit -> unit) ->
  ?chaos:Netchaos.injector ->
  ?timeout_s:float ->
  ?log:(string -> unit) ->
  Transport.addr ->
  t

(** The composite operations to hand to [Driver.build]. *)
val ops : t -> Cache.ops

(** True once the client has fallen back to local-only operation
    (it may still recover on a later redial). *)
val degraded : t -> bool

(** Remote hits / remote misses so far. *)
val remote_hits : t -> int

val remote_misses : t -> int

val close : t -> unit
