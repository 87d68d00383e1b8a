(** The compile server: a long-running daemon holding warm build state.

    One process owns a project directory: per group file it retains an
    {!Irm.Driver} manager (and with it the compilation session —
    interned symbols, rehydrated static environments), the journaled cache index, and the [.irm-profile] store,
    so a rebuild request pays only for what actually changed — no
    process startup, no session rehydration, no cache-index replay.

    The server is one more {!Remote.Netsrv} service, like the executor
    and the cache service: {!step} runs a watch sweep when one is due,
    then one reactor turn (select/accept/read/process/write), and {!run}
    loops it until shutdown.  Tests drive {!step} directly (no forked
    daemon needed); the CLI daemonizes and calls {!run}.  Requests are
    processed inline and FIFO — a build request occupies the loop for
    its duration; concurrent clients' requests queue and their
    responses interleave by request id.  Client misbehaviour never
    takes the daemon down: the reactor answers a corrupt frame with a
    best-effort {!Protocol.k_error} and a close, a version mismatch
    likewise, and drops a wedged client (half a frame, a response it
    never drains, or no HELLO) at [d_client_timeout_s].  An undecodable
    request gets a {!Protocol.k_error} naming its id and keeps the
    connection.

    [Build] and [Run] answer through {!Request.serve}, as a one-shot
    request does.  A clean [Run] executes with a one-entry memo per
    group, keyed on {!Irm.Driver.link_snapshot} (the link order and
    each bin's fingerprint): a program's output is a function of its
    link order and its bins, and the language reads no input, so a
    [Run] whose key is unchanged answers with the memoized response
    and executes nothing.  [Build] and watch rebuilds never execute
    user code.

    A polling {!Watch} sweep runs between requests: dirty files are
    mapped to their dependent cone and either rebuilt eagerly
    ([d_watch]) or left to invalidate the next build lazily (the
    staleness check re-derives the cone from disk).  Builds take the
    advisory {!Lock} for their duration, so a stray one-shot
    [irm build] in the same directory serializes against the daemon
    instead of interleaving journal writes. *)

exception Already_running of string

type config = {
  d_dir : string;  (** project root *)
  d_state_dir : string;  (** socket/pid/log directory, default [.irm-daemon] *)
  d_groups : string list;  (** groups to build and track at startup *)
  d_watch : bool;  (** rebuild dirty cones eagerly *)
  d_poll_s : float;  (** watch sweep interval *)
  d_client_timeout_s : float;  (** drop a wedged client after this *)
  d_cache : bool;  (** attach the content-addressed unit cache *)
  d_policy : string;  (** policy for startup and watch rebuilds *)
  d_jobs : int;  (** jobs for startup and watch rebuilds *)
  d_log : string -> unit;  (** daemon-side log line sink *)
}

val default_config : dir:string -> config

type t

(** [create cfg] — bind the socket, write the pid file, pre-build and
    track [cfg.d_groups].  Raises {!Already_running} if a live daemon
    already owns the socket (a stale socket file from a dead daemon is
    swept and rebound). *)
val create : config -> t

(** [step ?timeout_s t] — sweep if due, then one reactor turn: wait
    up to [timeout_s] (default 0.2) for socket activity or the next
    watch deadline, then accept/read/process/write what is ready.  An
    {!Irm.Driver.Interrupted} raised while a request ran is re-raised
    here. *)
val step : ?timeout_s:float -> t -> unit

(** Still serving?  Becomes false after a [Shutdown] request has been
    answered and drained, or after {!stop}. *)
val running : t -> bool

(** [run t] — {!step} until {!running} is false, then clean up
    (close connections, unlink socket and pid file).  An
    {!Irm.Driver.Interrupted} raised by a signal handler also cleans
    up, then re-raises for the caller's exit-code handling. *)
val run : t -> unit

(** [stop t] — stop serving and clean up now.  Idempotent; called
    automatically at the end of {!run}. *)
val stop : t -> unit
