(** One pool of job peers: supervised compile workers and remote
    executors behind one surface.

    The paper makes a unit compile a pure function of its job value,
    whose inputs and outputs pickle, so a compile can run in a forked
    child or on another machine.  The pool sends encoded jobs to such
    {e peers} and collects their answers; the caller's {!proto} says how
    to answer a job and how to turn a failure into an exception.  A
    peer is {b spawned} (a child forked on a socketpair, running the
    executor's job loop {!answer} and a SIGALRM heartbeat; its hello
    carries its trace epoch) or {b dialed} (an executor at an address,
    [irm serve-exec]).  Both speak {!Protocol}'s job-peer frames.

    The source fixes every failure rule; no option chooses them.
    Spawned peers confine a compiler crash to its unit.  A child that
    dies (EOF + [waitpid]), goes silent for four heartbeats or sends
    damage is killed; its job is retried on a fresh child, then
    quarantined ({!Crashed}, E0701).  A job past [timeout_s] kills its
    child and fails without retry ({!Timed_out}, E0702).  [quarantine]
    children in a row dead before their hello raise {!Pool_down}.  A
    spawned job never runs in the calling process: a local retry of a
    compile that crashes its child would undo the isolation.  Dialed
    peers survive the network.  A job past [timeout_s] is its
    executor's fault: the link is torn down and its jobs requeued.  A
    job unanswered after [hedge_s] is copied onto a second executor
    (first answer wins).  [quarantine] consecutive failures retire an
    executor.  A job out of retries, or left by the last executor,
    compiles in-process (the compile is pure: same bytes), or without
    [local_fallback] fails ({!Unreachable}, E0703; {!Protocol}, E0704).

    Restarts and redials back off, capped and jittered.  {!Netchaos}
    faults hit the pool's side of every link: a reset or torn frame on a
    child's link is that child's crash.  Spawned peers count
    [worker.spawns]/[restarts]/[kills]/[crashes]/[timeouts]/
    [quarantined]; dialed peers [pool.dispatched]/[requeued]/[hedged]/
    [quarantined]/[local_fallback_jobs].  With tracing on, a child ships
    its events on job receipt and before every reply, shifted by its
    epoch into the one Chrome trace; a child that dies mid-job leaves a
    [truncated] span on its track.  A pool that spawns must run on the
    main domain of a process with no other domains (forking with live
    domains is unsafe). *)

(** Injected child misbehaviour, keyed by job id (["*"]: every job). *)
type chaos =
  | Chaos_crash  (** SIGKILL itself on receiving the job *)
  | Chaos_hang  (** loop forever, heartbeats still ticking *)
  | Chaos_exit of int  (** exit with the given status *)
  | Chaos_wedge  (** block SIGALRM and loop: heartbeats stop *)
  | Chaos_nostart  (** die before the hello *)

(** Where the peers come from. *)
type peers =
  | Spawn of int  (** fork this many children *)
  | Dial of Transport.addr list  (** connect to these executors *)

type config = {
  peers : peers;
  slots : int;  (** jobs in flight per executor; a child runs one *)
  timeout_s : float;  (** per-job deadline *)
  heartbeat_s : float;  (** child heartbeat interval *)
  dial_timeout_s : float;  (** connect + hello budget of an executor *)
  retries : int;  (** retries per job before it is given up *)
  hedge_s : float;  (** straggler hedge threshold; 0 disables *)
  quarantine : int;  (** consecutive failures that give a peer up *)
  backoff_s : float;  (** restart and redial backoff base *)
  backoff_cap_s : float;  (** restart and redial backoff cap *)
  chaos : (string * chaos) list;  (** injected child misbehaviour *)
  net_chaos : Netchaos.plan;  (** network faults on the pool's side *)
  tick : (unit -> unit) option;  (** runs in every wait (test pumps) *)
  local_fallback : bool;
  log : string -> unit;
}

(** [SMLSEP_WORKER_CHAOS], which {!chaos_of_env} parses. *)
val chaos_env_var : string

(** The chaos hook [crash:u1.sml,hang:u2.sml,exit=3:u3.sml,wedge:u4.sml,
    nostart] from the environment; unknown entries are ignored. *)
val chaos_of_env : unit -> (string * chaos) list

(** [default_config peers] — 2 slots per executor, 30 s job deadline,
    0.25 s heartbeat, 5 s dial budget, 10 s hedge, quarantine after 3,
    backoff 0.05 s capped at 1 s, local fallback on, warnings to
    stderr, child chaos from {!chaos_of_env}.  A spawned pool retries a
    crashed job once; a dialed pool retries a job twice and takes its
    network faults from [SMLSEP_NET_CHAOS] ({!Netchaos.of_env}). *)
val default_config : peers -> config

(** Why the pool failed a job (the IRM mints E0701–E0704). *)
type failure =
  | Crashed of { attempts : int; detail : string }  (** quarantined *)
  | Timed_out of { timeout_s : float }  (** its child was killed *)
  | Unreachable of { attempts : int; detail : string }
  | Protocol of { detail : string }  (** an executor sent damage *)

(** Children die before their hello faster than [quarantine] allows.
    Builds abort with exit code 4. *)
exception Pool_down of string

(** [p_handler] answers a job (on a peer, or in a local fallback) and
    [p_encode_exn] carries its exception back; [p_decode_exn] rebuilds
    that exception, and [p_fail] makes one from a {!failure}. *)
type proto = {
  p_handler : id:string -> string -> string;
  p_encode_exn : exn -> string;
  p_decode_exn : string -> exn;
  p_fail : id:string -> failure -> exn;
}

(** [answer proto ~id payload] — the frame kind and payload answering a
    job: [k_result] and the reply, or [k_error] and the exception.  The
    executor's job loop, in a spawned child and in an {!Exec}. *)
val answer : proto -> id:string -> string -> int * string

(** A job's id and the peer's reply, its error, or a [p_fail] failure. *)
type completion = string * (string, exn) result

type t

(** [create config proto] — peers are spawned or dialed lazily, once a
    job waits.  Every link ignores SIGPIPE for the calling process. *)
val create : config -> proto -> t

(** [submit t ~id payload] — queue a job; ids are unique in flight. *)
val submit : t -> id:string -> string -> unit

(** Jobs submitted and not yet returned. *)
val pending : t -> int

(** Seconds each peer spent holding jobs, in peer order (a single slot
    for a pool without executors). *)
val slot_busy : t -> float array

(** [links t] — the live links and the earliest moment a turn must run
    ([infinity]: none).  The executor's reactor waits on these beside
    its clients, then calls {!pump}; {!next} waits on the same. *)
val links : t -> Transport.conn list * float

(** [pump t] — one turn that never blocks: start peers, progress every
    link, enforce deadlines, hedge, dispatch.  Raises {!Pool_down}. *)
val pump : t -> unit

(** [poll t] — a completion, if {!pump} produced one.  Never blocks. *)
val poll : t -> completion option

(** [next t] — block until a job finishes.  Raises {!Pool_down}, and
    [Invalid_argument] if nothing is pending. *)
val next : t -> completion

(** Close every link; kill and reap every child.  Idempotent. *)
val shutdown : t -> unit
