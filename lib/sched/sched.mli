(** DAG-aware wavefront scheduler over three execution backends.

    The paper makes compiling a unit a pure function of
    [(source, import interface pids)] — which is exactly the licence a
    build system needs to run independent units concurrently.  This
    module supplies the generic machinery: it walks a dependency DAG in
    wavefront order, dispatching every node whose dependencies have all
    completed, and guarantees a {e deterministic} outcome regardless of
    completion order:

    - node work is split into three phases — [prepare] and [complete]
      always run on the calling domain (they may touch shared, unlocked
      state such as the manager's session), while [execute] may run on
      a worker domain and must only touch the job value it was given;
    - results are reported back as they arrive, but the final outcome
      list is in the caller's node order;
    - failures are deterministic: every node whose dependencies
      succeeded is still attempted, and the error raised is the one
      belonging to the {e earliest failed node in the given order} —
      the same error a serial left-to-right run would have raised.
      Nodes downstream of a failure are skipped.

    Every backend presents the same pool surface — submit a job, take
    the next finished one, report slot busy time, shut down — so one
    drive loop runs them all.

    The scheduler knows nothing about compilation; [Irm.Driver] plugs
    staleness checks and cache probes into [prepare], isolated compile
    sessions into [execute], and session merging into [complete]. *)

(** How to run a build.  [Serial] executes everything on the calling
    domain (no domains are spawned); [Parallel n] uses [n] worker
    domains ([n <= 1] degrades to [Serial]), spawned with the first job
    dispatched, so a run that compiles nothing spawns none; the
    [sched.domains] counter counts them.  [Pool cfg] sends every
    [execute] through a {!Remote.Pool}, serialized by a {!codec}, to the
    peers [cfg.peers] names: supervised child processes it spawns (crash
    isolation, per-job timeouts, quarantine) or remote executors it
    dials (deadlines, retry, hedged re-dispatch, and local compiles
    when every executor is gone).  The pool never spawns domains
    (forking with live domains is unsafe); the calling domain waits on
    its links in {!Remote.Transport.wait}. *)
type backend =
  | Serial
  | Parallel of int
  | Pool of Remote.Pool.config

val backend_name : backend -> string

(** The machine's recommended worker count
    ({!Domain.recommended_domain_count}). *)
val default_jobs : unit -> int

(** [jobs backend] — the worker count a backend stands for ([Serial]
    is 1). *)
val jobs : backend -> int

(** What [prepare] decided for a node: either hand a job to a worker,
    or finish the node immediately with a result (already up to date,
    cache hit, …). *)
type ('job, 'result) action = Run of 'job | Done of 'result

(** How the [Pool] backend moves jobs across the process boundary:
    [c_encode_job]/[c_decode_result] frame the payloads, and [c_proto]
    is the peer-side handler plus exception transport handed to
    {!Remote.Pool.create}.  The other backends ignore it. *)
type ('job, 'result) codec = {
  c_proto : Remote.Pool.proto;
  c_encode_job : 'job -> string;
  c_decode_result : string -> 'result;
}

(** A node's fate in the outcome list. *)
type 'result outcome =
  | Completed of 'result
  | Failed of exn  (** [prepare], [execute] or [complete] raised *)
  | Skipped of string  (** a dependency failed; names the culprit *)

(** Slot accounting for one run: how long each execution slot (domain,
    worker process, or the calling domain for [Serial]) spent holding a
    job versus the run's wall time.  [busy / (jobs * wall)] is the
    scheduler-efficiency figure the profile report prints. *)
type slots = {
  sl_jobs : int;
  sl_busy_s : float array;  (** one entry per slot *)
  sl_wall_s : float;
}

(** The accounting of the most recent {!run} on this domain, if any. *)
val last_slots : unit -> slots option

(** [run ?retries ?backoff_s ?retryable backend ~order ~deps ~prepare
    ~execute ~complete] — schedule every node of [order] (a topological
    order: dependencies before dependents; [deps] must only name nodes
    in [order]).

    When a callback raises an exception for which [retryable] returns
    true (default: never), it is re-invoked up to [retries] more times
    (default 0), sleeping [min backoff_cap_s (backoff_s * 2^attempt)]
    seconds scaled by a uniform jitter in [0.5, 1.5) in between —
    bounded recovery from transient faults without poisoning the node's
    dependent cone, and without several domains retrying a shared flaky
    resource in lock-step.  Each retry leaves a [sched.retry] trace
    instant whose [attempt] and [delay_s] args record the sleep.

    The [Pool] backend additionally requires [codec]
    ([Invalid_argument] otherwise); [execute] then runs {e on a peer}
    via [codec.c_proto.p_handler], and the pool's failures (crash
    quarantine, timeout, E0703/E0704, {!Remote.Pool.Pool_down}) surface
    exactly like [execute] exceptions — [Failed] outcomes poisoning
    the dependent cone, or [Pool_down] aborting the build.

    For each node, once all its dependencies completed (one gate for
    both dispatch and [complete]): [prepare node] runs
    on the calling domain; a [Run job] is handed to a worker which runs
    [execute job]; the result (from the worker or directly from
    [Done]) is passed to [complete node result] on the calling domain.
    Completion order across independent nodes is unspecified — both
    callbacks must not depend on it.

    Returns outcomes in [order].  If any node failed, raises that
    node's exception — choosing the earliest failed node in [order],
    exactly as a serial run would.  With [keep_going] (default false)
    no exception is raised: failures stay in the outcome list as
    [Failed], their dependent cones as [Skipped], and every node not
    downstream of a failure still runs.

    Exceptions for which [fatal] returns true (default: none) are never
    demoted to a [Failed] outcome: they abort the run immediately and
    re-raise, {e even under} [keep_going].  This is how a signal-driven
    interrupt cuts through a keep-going build instead of being recorded
    as one more unit failure.  Job-peer pools and domain pools are still
    shut down on the way out.

    [priority] (default: constant [0.]) ranks the ready queue: among
    dispatchable nodes the one with the {e highest} priority starts
    first — feed it critical-path lengths to shrink the makespan.
    Equal priorities dispatch in caller order, so the default is
    exactly the plain wavefront and no priority map can ever perturb
    outcomes: priorities steer only {e when} work starts, never what it
    computes.  Dispatch is slot-paced (at most [jobs backend] jobs in
    flight), so a node becoming ready late still outranks queued
    lower-priority work. *)
val run :
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_cap_s:float ->
  ?retryable:(exn -> bool) ->
  ?keep_going:bool ->
  ?fatal:(exn -> bool) ->
  ?codec:('job, 'result) codec ->
  ?priority:(string -> float) ->
  backend ->
  order:string list ->
  deps:(string -> string list) ->
  prepare:(string -> ('job, 'result) action) ->
  execute:('job -> 'result) ->
  complete:(string -> 'result -> 'result) ->
  (string * 'result outcome) list
