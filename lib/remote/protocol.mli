(** The one tag space of every {!Pickle.Frame} the system exchanges
    over {!Transport} connections: worker links 0–5, the compile
    daemon's requests 17–19 (declared in [Daemon.Protocol]), the fabric
    32–45.  The ranges are disjoint, so a frame aimed at the wrong peer
    is an immediate protocol error, never a misread; the daemon, a
    {!Netsrv} service, shares {!k_hello}, {!k_error} and {!k_ping}.

    {b Worker links} ({!Worker}): the child greets with
    {!k_worker_hello} (payload: its trace clock epoch); a job goes out
    as one {!k_request} and comes back as one {!k_response} or
    {!k_worker_error} echoing its id; meanwhile the child sends
    {!k_heartbeat} ticks and {!k_trace} event batches.

    {b Fabric services}: the client opens with a {!k_hello} frame whose
    payload is the service's version string; the server answers in
    kind, or replies {!k_error} and closes on a mismatch.  The two
    services carry different version strings, so a build client dialing
    the cache service (or vice versa) fails the handshake instead of
    exchanging nonsense.

    {b Executor service} ([irm serve-exec]): each compile goes out as
    one {!k_job} frame with the unit name as id and a {!Irm.Wire}
    encoded job as payload; the executor replies with exactly one
    {!k_result} (encoded result) or {!k_error} (encoded exception),
    echoing the id.  Ids may interleave freely — an executor hosts a
    whole worker pool.  Kind 37 is retired (under [smlsep-remote/1] it
    carried a mid-compile static-view release) and is not reused.

    {b Cache service} ([irm serve-cache]): {!k_cache_get} with the
    cache key as id answers {!k_cache_hit} (payload: the object bytes)
    or {!k_cache_miss}; {!k_cache_put} (payload: the object bytes)
    answers {!k_cache_ok}, sent only after the object {e and} its index
    record are durably committed on the service side; {!k_cache_has}
    answers hit/miss with an empty payload. *)

(** Executor service version, exchanged at HELLO. *)
val version_exec : string

(** Cache service version, exchanged at HELLO. *)
val version_cache : string

(** {2 Worker-link frames} *)

val k_worker_hello : int
val k_heartbeat : int
val k_request : int
val k_response : int
val k_worker_error : int
val k_trace : int  (** child to parent: a drained trace-event batch *)

(** {2 Common fabric frame kinds} *)

val k_hello : int
val k_error : int
val k_ping : int  (** health probe; echoed verbatim *)

(** {2 Executor frames} *)

val k_job : int
val k_result : int

(** {2 Cache-service frames} *)

val k_cache_get : int
val k_cache_put : int
val k_cache_has : int
val k_cache_hit : int
val k_cache_miss : int
val k_cache_ok : int
