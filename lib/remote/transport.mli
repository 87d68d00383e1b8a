(** Stream transport: framed, nonblocking, chaos-injectable
    connections over Unix-domain or TCP sockets — the one wire every
    frame in the system crosses ({!Pickle.Frame}s, tagged as
    {!Protocol} declares).  A connection is dialed ({!dial}: the
    fabric's and the daemon's clients) or wraps a connected socket
    ({!of_fd}: both ends of a child's socketpair link, and every
    connection a {!Netsrv} service accepts).  Every connection is
    nonblocking end to end: [dial] starts the connect and returns
    immediately, [poll] progresses it, and one {!wait} sleeps until
    any of a caller's connections may progress — the only [select] in
    the system.

    When an injector is attached, every connect, frame send and frame
    receive consults {!Netchaos} first, so one seed reproduces an
    entire build's worth of network weather. *)

type addr =
  | Unix_sock of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host, port *)

(** [parse_addr s] — ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path
    (taken as Unix-domain). *)
val parse_addr : string -> (addr, string) result

val addr_to_string : addr -> string

(** The peer cannot be reached: refused, no such socket, reset during
    the handshake, dial deadline expired, or the connection died while
    a frame was awaited. *)
exception Unreachable of string

(** The peer is reachable but speaks damage: bad magic, CRC mismatch,
    torn frame. *)
exception Protocol_damage of string

(** {!await}'s deadline passed before a frame arrived. *)
exception Timed_out

(** [listen addr] — a nonblocking listening socket ([addr] with port 0
    picks an ephemeral port; a stale Unix socket path is unlinked).
    Raises {!Unreachable} when the address cannot be bound.  Like
    {!dial}, it sets SIGPIPE to ignored for the process, so a peer
    hanging up mid-write is an [EPIPE] on that connection. *)
val listen : ?backlog:int -> addr -> Unix.file_descr

(** [bound_addr fd addr] — [addr] with the actual port filled in, for
    listeners bound to port 0. *)
val bound_addr : Unix.file_descr -> addr -> addr

type conn

type status =
  | Connecting  (** the connect (or its chaos delay) is still in flight *)
  | Up
  | Closed of string  (** why the connection died *)

(** [dial ?chaos addr] — begin a nonblocking connect.  Raises
    {!Unreachable} when the failure is immediate (refused, absent).  A
    connect a full Unix listen backlog refuses to start ([EAGAIN])
    stays [Connecting]: {!poll} re-issues it until the listener makes
    room or the caller's deadline gives up. *)
val dial : ?chaos:Netchaos.injector -> addr -> conn

(** [of_fd ?chaos fd] — an [Up] connection over a connected socket (an
    accepted one, or one end of a [Unix.socketpair]); no dial, no
    address.  Makes [fd] nonblocking and, like {!dial}, ignores
    SIGPIPE. *)
val of_fd : ?chaos:Netchaos.injector -> Unix.file_descr -> conn

val status : conn -> status

(** The connected socket while the connection is [Up]; [None] while it
    connects and once it is closed.  For probes that look past the
    framing ({!Netsrv.conn_alive}); waiting goes through {!wait}. *)
val fd : conn -> Unix.file_descr option

(** [buffered t] — bytes held in [t]'s buffers: [(received, queued)],
    the first half of a frame not yet complete and the output the
    socket has not taken yet. *)
val buffered : conn -> int * int

(** When bytes last moved on [t] either way (or when it was made). *)
val last_io : conn -> float

(** [poll t] — progress the connection: finish the connect, read
    whatever the peer sent, flush pending output.  Never blocks, never
    raises; failures park the connection in [Closed]. *)
val poll : conn -> unit

(** [send t ~kind ~id ~payload] — frame and queue a message, flushing
    as much as the socket accepts (nothing before the connect
    completes).  A send on a closed connection is dropped silently —
    the caller observes [Closed] via {!status}. *)
val send : conn -> kind:int -> id:string -> payload:string -> unit

(** [recv t] — the next complete frame, if one has arrived; [None]
    once [t] is closing ({!close_after_flush}).  Raises
    {!Protocol_damage} on a provably damaged stream: the rest of the
    input is discarded and [t] closes once its queued output has
    flushed, so a server may still answer with an error frame. *)
val recv : conn -> Pickle.Frame.msg option

(** [close_after_flush t] — deliver nothing more and close once the
    queued output has left (at once if none is queued). *)
val close_after_flush : conn -> unit

val close : conn -> unit

(** [wait ?listener conns ~timeout_s] — sleep until one of [conns] may
    progress, [listener] has a connection to accept, or [timeout_s]
    ([infinity]: no limit) passes; a signal ends it early.  An [Up]
    connection wakes it when readable, and when writable only while it
    has output queued; a [Connecting] one caps the sleep at 10 ms (its
    connect is progressed by {!poll}), a chaos-delayed frame at its
    arrival; a [Closed] one returns at once.
    It never changes a connection, so a signal handler may {!send} on
    one meanwhile. *)
val wait :
  ?listener:Unix.file_descr -> conn list -> timeout_s:float -> unit

(** {2 Blocking use}, for a client with one request in flight.
    [tick] runs once per turn of the wait: the in-process harnesses
    pump a server's reactor with it. *)

(** [await ?tick t ~deadline] — block until the next frame arrives
    (frames that arrived before a close still count).  Raises
    {!Timed_out} once [deadline] passes, {!Protocol_damage} on a
    damaged stream, {!Unreachable} when the connection closes first. *)
val await :
  ?tick:(unit -> unit) -> conn -> deadline:float -> Pickle.Frame.msg

(** [greet ?tick t ~version ~deadline] — the HELLO exchange.  Raises
    {!Protocol_damage} naming the reason when the peer refuses or
    speaks another version, and {!await}'s exceptions otherwise; every
    failure closes the connection. *)
val greet :
  ?tick:(unit -> unit) -> conn -> version:string -> deadline:float -> unit
