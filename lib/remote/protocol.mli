(** The remote build fabric's wire protocol.

    Frames are {!Pickle.Frame} messages — the same CRC-64-trailed
    framing the worker pipes and the compile daemon use — carried over
    a stream socket ({!Transport}).  The fabric's tag space (32–45) is
    disjoint from both the worker protocol (0–5) and the daemon's
    request kinds (17–19); the daemon, also a {!Netsrv} service, shares
    {!k_hello}, {!k_error} and {!k_ping}.  A frame aimed at the wrong
    peer is an immediate protocol error, never a misread.

    Conversation shape, both services: the client opens with a
    {!k_hello} frame whose payload is the service's version string; the
    server answers in kind, or replies {!k_error} and closes on a
    mismatch.  The two services carry different version strings, so a
    build client dialing the cache service (or vice versa) fails the
    handshake instead of exchanging nonsense.

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

(** {2 Common frame kinds} *)

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
