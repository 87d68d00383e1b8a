(** The remote executor service: a worker pool behind a socket.

    An executor accepts {!Protocol.k_job} frames (unit name as id,
    {!Irm.Wire}-encoded job as payload), compiles them, and answers
    each with exactly one {!Protocol.k_result} or {!Protocol.k_error}.
    Because the job is a pure function of its payload, an executor on
    another machine returns bytes identical to a local compile — the
    fabric's whole correctness story rests on that.

    Two modes: [Pool cfg] hosts a supervised {!Worker} pool (the
    production shape — crashes and hangs become E0701/E0702 exactly as
    under [--workers], encoded back over the wire): the children's
    links sit in the reactor's one wait beside the clients'
    connections, so a finished compile wakes the turn that relays it.
    [Inline]
    compiles synchronously inside the reactor turn — forkless, for
    in-process tests where the chaos harness pumps client and server
    from one domain (fork is unsafe once OCaml domains exist). *)

type mode =
  | Inline
  | Pool of Worker.config

type t

(** [create ~mode addr proto] — bind, listen, serve jobs with [proto]
    (the IRM passes [Irm.Wire.proto ()]).  Port 0 binds an ephemeral
    port; read it back with {!addr}. *)
val create : mode:mode -> Transport.addr -> Worker.proto -> t

val addr : t -> Transport.addr

(** Jobs accepted and not yet answered. *)
val inflight : t -> int

(** One reactor turn: wait at most [timeout_s] (default 0) — in
    [Pool] mode also on the pool's links, and no later than its next
    supervision deadline — serve the clients, then pump the pool. *)
val step : ?timeout_s:float -> t -> unit

val running : t -> bool

(** Loop {!step} (50 ms granularity) until {!stop}. *)
val run : t -> unit

val stop : t -> unit
