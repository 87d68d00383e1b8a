(** The service side of {!Transport}: the compile daemon, the
    executor and the cache service all serve through it.

    Every accepted socket is a {!Transport.of_fd} connection, so
    buffering, reads, writes and frame parsing are the transport's;
    this module adds what makes a service: connection ids, HELLO
    gating, garbage tolerance, the close after a refusal, and the
    wedged-client watchdog — a service only supplies a message
    handler.  [step] performs one bounded reactor turn, waiting in
    {!Transport.wait} on the listener and every connection; callers
    loop it ([run]) or hand-pump it from a test in the same process,
    which is how the chaos harnesses get a deterministic single-domain
    interleaving of client and server.

    HELLO gating is built in: the first frame on every connection must
    be a {!Protocol.k_hello} carrying exactly [version]; anything else
    gets a {!Protocol.k_error} and a close, and the handler never sees
    a message from an ungreeted peer.

    The watchdog drops a connection holding half a frame, undrained
    output or no HELLO once no byte has moved on it
    ({!Transport.last_io}) for the idle timeout; a greeted connection
    with nothing in flight stays (a pool holds those between jobs). *)

type t

(** [create ?client_timeout_s ~version addr] — bind and listen.
    [addr] with port 0 binds an ephemeral port; read the result back
    with {!addr}.  [client_timeout_s] (default 30) is the watchdog's
    idle timeout.  Raises {!Transport.Unreachable} when the address
    cannot be bound. *)
val create :
  ?client_timeout_s:float -> version:string -> Transport.addr -> t

(** The bound address (with the real port filled in). *)
val addr : t -> Transport.addr

(** [set_handler t f] — [f ~conn msg] runs once per well-formed
    post-HELLO frame; [conn] identifies the connection for {!send}.
    An exception out of the handler closes that connection with an
    error frame, never the reactor. *)
val set_handler : t -> (conn:int -> Pickle.Frame.msg -> unit) -> unit

(** [send t ~conn ~kind ~id ~payload] — {!Transport.send} a frame to
    [conn].  Dropped silently if the connection is gone. *)
val send : t -> conn:int -> kind:int -> id:string -> payload:string -> unit

(** Is this connection's peer still there?  False once it is closed,
    or when a [MSG_PEEK] probe sees EOF or a broken socket — a long
    handler polls it to notice a client that hung up. *)
val conn_alive : t -> conn:int -> bool

(** Live connections. *)
val connections : t -> int

(** True when no live connection has output left to flush. *)
val drained : t -> bool

(** One reactor turn: wait, accept, then read, dispatch and flush every
    connection.  The wait lasts at most [timeout_s] (default 0 — never
    blocks) and also wakes for [extra], connections the caller
    progresses itself after the turn (the executor's pool links). *)
val step : ?timeout_s:float -> ?extra:Transport.conn list -> t -> unit

val running : t -> bool

(** Loop {!step} (50 ms granularity) until {!stop}. *)
val run : t -> unit

(** Close every connection and the listener, and unlink a Unix socket
    path.  Idempotent. *)
val stop : t -> unit
