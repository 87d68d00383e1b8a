(** Supervised out-of-process compile workers.

    The paper's factored model makes each unit compile a pure function
    of its job value — which means a compile can run in a forked child
    process with nothing but one socket link between them, and a
    compiler defect triggered by one unit (a segfault, runaway
    elaboration, resource exhaustion) costs that unit alone instead of
    the whole build.  This module supplies the supervision machinery;
    it knows nothing about compilation — the caller provides a
    {!proto} saying how to serve a request in the child and how to
    translate failures into its own exception vocabulary.

    The supervisor (the parent process) enforces:

    - a per-job wall-clock timeout: a hung child (runaway unification,
      an elaboration loop) is SIGKILLed and the job fails with
      {!Timed_out} — no retry, a deterministic hang would only burn
      the timeout again;
    - liveness via heartbeats: the child ticks on a SIGALRM timer even
      mid-compile, so a wedged process (stuck without consuming its
      job's time productively) is detected and killed;
    - crash detection via EOF + [waitpid]: a child that dies
      (segfault, OOM kill, nonzero exit) is observed immediately, its
      in-flight job is retried on a fresh worker, and after
      [w_crash_limit] crashes the job is {e quarantined} — failed with
      {!Crashed} so a keep-going build poisons its dependent cone
      instead of retrying forever;
    - restart with capped, jittered exponential backoff; a pool whose
      workers die [w_spawn_limit] times in a row before completing
      their handshake is declared dead ({!Pool_down} — builds abort
      with a distinct exit code).

    Each child's link is one {!Transport} connection over a
    [Unix.socketpair], carrying {!Protocol}'s worker-link kinds; a torn
    or corrupted stream is a child malfunction (kill + crash
    accounting), never a wrong result.  The child sends heartbeats from
    its SIGALRM handler, so it changes the link only with SIGALRM
    blocked; the alarm is open only while the job runs and while the
    child sleeps in {!Transport.wait}, which never changes the link.

    Lifecycle events flow into [lib/obs]: [worker.spawns]/[restarts]/
    [kills]/[crashes]/[timeouts]/[quarantined], the [worker.pool]
    gauge and trace instants; the links' bytes count in
    [remote.bytes_in]/[out].  With tracing on, children ship their
    buffered trace events back over the link (flushed on job receipt
    and before every reply), and the HELLO carries the child's clock
    epoch so the supervisor corrects timestamps before merging: one
    Chrome trace covers the parent and every child, and a child that
    dies mid-job leaves a synthetic [truncated] span.

    Unlike {!Fleet}, the pool never compiles locally: a local retry of
    a compile that crashes its child would defeat the isolation this
    module exists for.  It must be driven from the main domain of a
    process with no other domains running (forking with live domains
    is unsafe). *)

(** Injected child misbehaviour, for testing the supervisor: what the
    child does when it receives (or, for [Chaos_nostart], before it
    greets at all).  Keyed by job id; ["*"] matches every job. *)
type chaos =
  | Chaos_crash  (** SIGKILL itself on receiving the job *)
  | Chaos_hang  (** loop forever, heartbeats still ticking *)
  | Chaos_exit of int  (** exit with the given status *)
  | Chaos_wedge  (** block SIGALRM and loop: heartbeats stop *)
  | Chaos_nostart  (** die before the HELLO handshake *)

type config = {
  w_jobs : int;  (** pool size (child processes) *)
  w_timeout_s : float;  (** per-job wall-clock budget *)
  w_heartbeat_s : float;  (** child heartbeat interval *)
  w_crash_limit : int;
      (** quarantine a job after this many child crashes (default 2) *)
  w_spawn_limit : int;
      (** consecutive pre-handshake deaths before {!Pool_down} *)
  w_backoff_s : float;  (** restart backoff base *)
  w_backoff_cap_s : float;  (** restart backoff cap *)
  w_chaos : (string * chaos) list;  (** injected misbehaviour *)
}

(** The environment variable {!chaos_of_env} parses
    ([SMLSEP_WORKER_CHAOS]). *)
val chaos_env_var : string

(** Parse the chaos hook from the environment: a comma-separated list
    of [mode:unit] entries — [crash:u1.sml,hang:u2.sml,exit=3:u3.sml,
    wedge:u4.sml,nostart] ([nostart] needs no unit: it applies to every
    spawn).  Unknown entries are ignored. *)
val chaos_of_env : unit -> (string * chaos) list

(** [default_config ?jobs ()] — [jobs] workers (default 2), 30 s
    timeout, 0.25 s heartbeat, crash limit 2, spawn limit 3, backoff
    0.05 s capped at 1 s, chaos from {!chaos_of_env}. *)
val default_config : ?jobs:int -> unit -> config

(** Why the supervisor failed a job. *)
type failure =
  | Crashed of { wf_attempts : int; wf_detail : string }
      (** the child died while holding the job, [wf_attempts] times —
          the job is quarantined *)
  | Timed_out of { wf_timeout_s : float }
      (** the job exceeded its wall-clock budget and the child was
          killed *)

(** The pool cannot make progress: workers die before completing their
    handshake faster than the spawn limit allows.  Builds abort with
    exit code 4. *)
exception Pool_down of string

(** How the generic supervisor talks to the caller's domain:
    [p_handler] runs {e in the child} (request payload to response
    payload; exceptions become error replies via [p_encode_exn]);
    [p_decode_exn] rebuilds the exception {e in the parent};
    [p_fail] translates a supervision {!failure} into the caller's
    exception vocabulary (the IRM mints E0701/E0702 diagnostics). *)
type proto = {
  p_handler : id:string -> string -> string;
  p_encode_exn : exn -> string;
  p_decode_exn : string -> exn;
  p_fail : id:string -> failure -> exn;
}

(** What the pool reports back: a job's id and its result — the
    handler's reply, its error, or a supervision failure. *)
type completion = string * (string, exn) result

type t

(** [create config proto] — a pool of up to [config.w_jobs] supervised
    child processes.  Children are spawned lazily, on demand; each link
    ignores SIGPIPE for the calling process (a worker dying mid-write
    must be an observable error, not a parent death). *)
val create : config -> proto -> t

(** [submit t ~id payload] — queue a job.  Ids must be unique among
    in-flight jobs. *)
val submit : t -> id:string -> string -> unit

(** Jobs submitted but not yet returned by {!next}. *)
val pending : t -> int

(** [slot_busy t] — seconds each of the [w_jobs] slots has spent
    holding a dispatched job (including jobs that ended in a crash,
    timeout or quarantine), for scheduler-efficiency reporting. *)
val slot_busy : t -> float array

(** [pump t] — one nonblocking supervision turn: spawn due workers,
    dispatch queued jobs, progress every ready link, and enforce
    heartbeat/timeout deadlines.  Never blocks.  Raises {!Pool_down}
    when a spawn storm kills the pool.  For callers embedding the pool
    in their own event loop (the remote executor's socket reactor);
    interactive callers use {!next}, which loops the same turn with a
    blocking wait. *)
val pump : t -> unit

(** [poll t] — a completion, if {!pump} produced one.  Never blocks. *)
val poll : t -> completion option

(** [next t] — block until a job finishes: successfully, with a
    handler error, or by supervision (crash quarantine or timeout).
    Raises {!Pool_down} if the pool dies entirely, and
    [Invalid_argument] if nothing is pending. *)
val next : t -> completion

(** Kill every child and reap it.  Idempotent. *)
val shutdown : t -> unit
