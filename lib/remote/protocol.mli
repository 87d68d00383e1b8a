(** The one tag space of every {!Pickle.Frame} the system exchanges
    over {!Transport} connections: the compile daemon's requests 17–19
    (declared in [Daemon.Protocol]) and the fabric 32–45.  Kinds 0–5
    carried the retired worker-link frames and kind 37 a retired
    mid-compile static-view release; none is reused.  The ranges are
    disjoint, so a frame aimed at the wrong peer is an immediate
    protocol error, never a misread; the daemon, a {!Netsrv} service,
    shares {!k_hello}, {!k_error} and {!k_ping}.

    {b Fabric services}: the client's {!k_hello} carries the service's
    version string; the server answers in kind, or replies {!k_error}
    and closes on a mismatch, so a client dialing the wrong service
    fails the handshake instead of exchanging nonsense.

    {b Job peers} ({!Pool}: an executor, [irm serve-exec], or a child
    forked on a socketpair): each compile goes out as one {!k_job} with
    the unit name as id and a {!Irm.Wire} encoded job as payload; the
    peer replies with exactly one {!k_result} or {!k_error} echoing the
    id.  Ids may interleave: an executor hosts a whole pool.  A child
    greets first, with its trace clock epoch as {!k_hello} payload, then
    sends {!k_ping} heartbeats and {!k_trace} event batches.

    {b Cache service} ([irm serve-cache]): {!k_cache_get} with the
    cache key as id answers {!k_cache_hit} (payload: the object bytes)
    or {!k_cache_miss}; {!k_cache_put} (payload: the object bytes)
    answers {!k_cache_ok}, sent only after the object {e and} its index
    record are committed on the service side (atomic renames: they
    survive the service process crashing, not an OS crash or power
    loss, since nothing calls [fsync]); {!k_cache_has} answers hit/miss
    with an empty payload. *)

(** Executor service version, exchanged at HELLO. *)
val version_exec : string

(** Cache service version, exchanged at HELLO. *)
val version_cache : string

(** {2 Common fabric frame kinds} *)

val k_hello : int
val k_error : int
val k_ping : int  (** health probe a service echoes; a child's heartbeat *)

(** {2 Job-peer frames} *)

val k_job : int
val k_result : int
val k_trace : int  (** child to pool: a drained trace-event batch *)

(** {2 Cache-service frames} *)

val k_cache_get : int
val k_cache_put : int
val k_cache_has : int
val k_cache_hit : int
val k_cache_miss : int
val k_cache_ok : int
