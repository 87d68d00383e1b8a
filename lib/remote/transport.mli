(** Stream transport: framed, nonblocking, chaos-injectable
    connections over Unix-domain or TCP sockets — the one wire every
    frame in the system crosses ({!Pickle.Frame}s, tagged as
    {!Protocol} declares).  A connection is dialed ({!dial}: the
    fabric's and the daemon's clients) or wraps a connected socket
    ({!of_fd}: both ends of a worker's socketpair link); servers accept
    raw fds through {!Netsrv}.  Every connection is nonblocking end to
    end: [dial] starts the connect and returns immediately, [poll]
    progresses it, and the caller multiplexes many connections from one
    loop.

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

(** [of_fd fd] — an [Up] connection over a connected socket (one end
    of a [Unix.socketpair]); no dial, no address, no chaos.  Makes [fd]
    nonblocking and, like {!dial}, ignores SIGPIPE. *)
val of_fd : Unix.file_descr -> conn

val status : conn -> status

(** The fd to select on while the connection is [Up]; [None] while it
    connects ({!poll} it) and once it is closed. *)
val fd : conn -> Unix.file_descr option

(** Output is queued: select for writability on {!fd} too. *)
val want_write : conn -> bool

(** [poll t] — progress the connection: finish the connect, read
    whatever the peer sent, flush pending output.  Never blocks, never
    raises; failures park the connection in [Closed]. *)
val poll : conn -> unit

(** [send t ~kind ~id ~payload] — frame and queue a message, flushing
    as much as the socket accepts (nothing before the connect
    completes).  A send on a closed connection is dropped silently —
    the caller observes [Closed] via {!status}. *)
val send : conn -> kind:int -> id:string -> payload:string -> unit

(** [recv t] — the next complete frame, if one has arrived.  Raises
    {!Protocol_damage} on a provably damaged stream (the connection is
    closed first). *)
val recv : conn -> Pickle.Frame.msg option

val close : conn -> unit

(** [wait t ~timeout_s] — sleep until [t] may progress or [timeout_s]
    ([infinity]: no limit) passes; a signal ends it early.  It never
    changes [t], so a signal handler may {!send} on [t] meanwhile. *)
val wait : conn -> timeout_s:float -> unit

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
