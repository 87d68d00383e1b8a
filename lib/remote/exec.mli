(** The remote executor service: a job pool behind a socket.

    An executor answers each {!Protocol.k_job} frame (unit name as id,
    {!Irm.Wire}-encoded job as payload) with exactly one
    {!Protocol.k_result} or {!Protocol.k_error}.  The job is a pure
    function of its payload, so an executor on another machine returns
    the bytes of a local compile.  [Pool cfg] fronts a {!Pool} whose
    links sit in the reactor's one wait beside the clients': with
    spawned peers, a crash or hang becomes the job's E0701/E0702
    [k_error].  [Inline] answers in the reactor turn with {!Pool.answer}
    — forkless, for in-process tests (fork is unsafe once OCaml domains
    exist). *)

type mode =
  | Inline
  | Pool of Pool.config

type t

(** [create ~mode addr proto] — bind, listen, serve jobs with [proto]
    (the IRM passes [Irm.Wire.proto ()]).  Port 0 binds an ephemeral
    port; read it back with {!addr}. *)
val create : mode:mode -> Transport.addr -> Pool.proto -> t

val addr : t -> Transport.addr

(** One reactor turn: wait at most [timeout_s] (default 0) — in
    [Pool] mode also on the pool's links, and no later than its next
    supervision deadline — serve the clients, then pump the pool. *)
val step : ?timeout_s:float -> t -> unit

val running : t -> bool

(** Loop {!step} (50 ms granularity) until {!stop}. *)
val run : t -> unit

val stop : t -> unit
