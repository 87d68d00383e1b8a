(** The Incremental Recompilation Manager (section 8).

    Three recompilation policies over the same dependency DAG:

    - {!Timestamp} — classical [make]: a unit is recompiled when its
      source is newer than its bin file {e or any dependency was
      recompiled}; changes cascade through the whole dependent cone.
    - {!Cutoff} — the paper's contribution: a unit is recompiled when
      its source is newer than its bin file or the {e interface pid} of
      some import differs from the one recorded at compile time.
      Because an implementation-only change leaves the exporting unit's
      intrinsic pid unchanged, the cascade is cut off immediately.
    - {!Selective} — the finer-grained variant the paper's section 2
      discusses under "smart recompilation": interface pids are kept
      {e per exported module}, and a dependent recompiles only when a
      module it actually references changed — so it survives interface
      changes to sibling modules of the same unit.

    All policies produce correct builds (bin files carrying the same
    interface pids as a from-scratch build); they differ only in how
    much they recompile — exactly the comparison the evaluation benches
    measure.

    Orthogonally to the policy, [build] takes a {!backend} — compile
    jobs of independent units can run on a pool of worker domains
    ({!Sched}) — and an optional content-addressed {!Cache.t} that is
    consulted before every compile, under every policy.  Because a
    compiled unit is a pure function of (source, import interface
    pids), both are sound: parallel builds are byte-identical to serial
    ones, and cache hits are byte-identical to recompiles. *)

type policy = Timestamp | Cutoff | Selective

val policy_name : policy -> string

(** Where compile jobs run — re-exported from {!Sched.backend}.
    [Pool] runs every compile on a {!Remote.Pool} peer: a supervised
    child process (crash isolation, per-unit timeouts, and quarantine
    diagnostics [E0701]/[E0702]) or a remote executor ([E0703]/[E0704]
    when none answers and local fallback is off), byte-identical to
    [Serial]. *)
type backend = Sched.backend =
  | Serial
  | Parallel of int
  | Pool of Remote.Pool.config

(** How the scheduler orders ready compiles.  [Wavefront] dispatches in
    build order as dependencies complete (the classical wavefront).
    [Critical_path] ranks ready units by the length of the longest
    downstream chain, with per-unit compile times estimated from the
    profile store's rolling EWMA (1 s for never-compiled units — an
    absent or damaged store degrades to longest-chain-by-depth, never
    an error), so the units bounding the build from below start first.
    Under both, a unit dispatches only once every dependency finished.

    Either way the resulting bins, diagnostics, and failed/skipped
    partitions are byte-identical to a serial build: the schedule
    steers only {e when} work starts, never what it computes. *)
type schedule = Wavefront | Critical_path

(** [wavefront] or [critical-path]. *)
val schedule_name : schedule -> string

(** Why a unit was recompiled — derived from the very comparisons the
    policy's staleness decision makes, so the attribution cannot drift
    from the behaviour. *)
type cause =
  | First_build  (** no bin file and the unit was never seen complete *)
  | Evicted
      (** no bin file, but the profile store has seen the unit build —
          someone removed its output *)
  | Corrupt_entry  (** the bin file exists but fails to rehydrate *)
  | Source_changed  (** the source is newer than the bin *)
  | Import_pid_changed of string list
      (** an import's interface changed; names the culprit imports
          (under [Selective], the providers of the changed modules) *)
  | Forced of string * string list
      (** recompiled without an interface-level reason: the policy
          forced it.  The string says why ([timestamp-cascade],
          [dependency-set-changed]); the list names the deps involved *)

(** The kebab-case wire name: [first-build], [evicted], [corrupt-entry],
    [source-changed], [import-pid-changed] or [forced]. *)
val cause_name : cause -> string

(** The imports a cause blames ([[]] for the self-inflicted ones). *)
val cause_culprits : cause -> string list

(** The [Forced] reason, if any. *)
val cause_detail : cause -> string option

type stats = {
  st_order : string list;  (** topological build order *)
  st_recompiled : string list;
  st_loaded : string list;  (** up to date, loaded from bin *)
  st_cache_hits : string list;
      (** stale, but the exact bytes were in the unit cache *)
  st_cutoff_hits : string list;
      (** recompiled but interface unchanged, so the cascade stopped
          (always empty under [Timestamp]) *)
  st_failed : (string * Support.Diag.t list) list;
      (** units whose compile failed, with their structured diagnostics
          (only non-empty under [keep_going]) *)
  st_skipped : (string * string) list;
      (** units not attempted because a dependency failed, with the
          culprit (only non-empty under [keep_going]) *)
  st_policy : policy;  (** the policy this build ran under *)
  st_backend : backend;  (** the backend this build ran under *)
  st_wall_s : float;  (** wall-clock seconds for the whole build *)
  st_unit_times : (string * float) list;
      (** wall-clock seconds per unit from staleness check to merged
          result, in build order (spans overlap under [Parallel]) *)
  st_build_id : int;
      (** from the profile store when one was given, else a
          process-local counter *)
  st_jobs : int;  (** execution slots the scheduler actually used *)
  st_slot_busy_s : float list;
      (** seconds each slot spent holding a job; [busy / (jobs * wall)]
          is the scheduler efficiency *)
  st_causes : (string * cause) list;
      (** every stale unit with why it was recompiled, in build order *)
  st_schedule : schedule;  (** the schedule this build ran under *)
}

type t

(** Raised out of a build when a signal (SIGINT/SIGTERM) asked the
    process to stop: the scheduler treats it as fatal — it aborts the
    wavefront immediately, {e even under} [keep_going] — and the driver
    records the partial build (only the units that finished) into the
    profile store before re-raising, so interrupted builds still show
    up in [irm profile].  The string names the signal. *)
exception Interrupted of string

(** [create fs] — a manager over a file system; owns a compilation
    session that persists across builds.  The session — and with it the
    interned symbols, rehydrated static environments, and the bin-byte
    identity of every unit loaded so far — is retained across builds:
    re-entering [build] on a warm manager skips rehydration for every
    unit whose bin bytes are unchanged on disk.

    A retained entry holds a unit's bin bytes, its statenv decoded and
    rehydrated from them, and its codeUnit {e still pickled}: a build
    reads only statics, so the code is decoded
    ({!Pickle.Binfile.decode_code}) the first time {!run} links the
    unit, and kept in the entry for later runs until the unit's bytes
    change.  A build decodes no code at all.

    The dependency scan is warm too: the manager keeps each source's
    text and its {!Depend.Scan.summary}, and parses again only the
    sources whose text changed (see {!dependency_graph}); while every
    unit's summary equals the last build's, the last build's
    dependency graph and its order are reused as well.  A long-running
    daemon holds one manager per group for exactly this reason. *)
val create : Vfs.fs -> t

val session : t -> Sepcomp.Compile.session

(** The build order recorded by the last successful {!build} ([[]]
    before the first). *)
val last_order : t -> string list

(** [dependency_graph ?keep_going t ~sources] — the dependency graph of
    [sources], through the manager's warm scan: every source is read,
    and parsed only if its text is not byte-equal to the text the
    manager last scanned for that file.  Only clean parses are
    remembered.  Only {!build} drops the memo entries and retained
    bins of files it does not list; a query over a subset of the
    group keeps the rest warm, and never replaces the graph a build
    memoized.  Each parse counts in the [depend.parses] metric, and the
    [build.scan_sources] span carries the [hits] and [misses] of the
    memo.  A missing source or a parse error raises
    {!Support.Diag.Error}; with [keep_going] (default false) a broken
    source instead scans as an empty unit — a recovery parse that is
    never remembered.  {!build} scans through the same memo and
    compiles exactly the bytes it scanned. *)
val dependency_graph :
  ?keep_going:bool -> t -> sources:string list -> Depend.Depgraph.t

(** [build ?backend ?cache ?retries ?backoff_s t ~policy ~sources] —
    bring every unit up to date.  Bin files are written next to sources
    with extension [.bin], always through the atomic-commit protocol
    ({!Vfs.commit}) so a crash mid-build never leaves a torn bin under
    its final name.  [backend] (default {!Serial}) says where compile
    jobs run; the resulting bin files are byte-identical either way.
    [schedule] (default {!Wavefront}) says in what order ready compiles
    dispatch — {!Critical_path} adds profile-guided priorities, again
    without changing any output byte.
    [cache], when given, is probed before every compile and fed after
    every compile.  [profile], when given, records the whole build —
    per-unit outcomes, causes, phase durations, import pids, slot
    occupancy — into the persistent profile store ({!Obs.Profile});
    it also lets the driver tell an [Evicted] bin apart from a
    [First_build].  A build that compiled nothing is not recorded:
    when no unit recompiled, hit the cache, failed or was skipped, and
    {!Obs.Profile.known} holds for every unit, the store is left
    untouched, and the build's {!stats.st_build_id} is the id the next
    recorded build takes.  An interrupted build, and a null build over
    a unit the store does not know, still record.  Transient
    file-system faults ({!Vfs.Fault} with [fault_transient]) are
    retried up to [retries] times (default 2) with exponential backoff
    starting at [backoff_s] seconds.
    Raises {!Support.Diag.Error} on missing sources, cycles, or compile
    errors — under [Parallel] the error reported is the one a serial
    left-to-right build would have raised.

    With [keep_going] (default false) compile errors no longer raise:
    each unit compiles under a diagnostics collector (front-end recovery
    on), a failed unit lands in {!stats.st_failed} with every diagnostic
    it produced, its dependent cone lands in {!stats.st_skipped}
    (poison propagation — those units are not attempted), and every
    unit {e not} reachable from a failure still builds.  Because a
    compiled unit is a pure function of (source, import pids), the
    failed/skipped partitions and the diagnostics are identical under
    every backend, in deterministic (serial build) order.  [werror]
    promotes warnings to errors at emission time; [max_errors] bounds
    the diagnostics collected per unit. *)
val build :
  ?backend:backend ->
  ?schedule:schedule ->
  ?cache:Cache.ops ->
  ?profile:Obs.Profile.t ->
  ?retries:int ->
  ?backoff_s:float ->
  ?keep_going:bool ->
  ?werror:bool ->
  ?max_errors:int ->
  t ->
  policy:policy ->
  sources:string list ->
  stats

(** [unit_of t file] — the Unit of [file] after the last build, with
    its codeUnit.  The code comes from the retained entry when a {!run}
    has decoded it, and is otherwise decoded from the bin bytes on
    every call ({!Pickle.Binfile.decode_code}, one
    [pickle.code_decodes]) and not retained, so asking leaves the
    manager's heap as it was.  Callers that need only the statics use
    {!interface_of}. *)
val unit_of : t -> string -> Pickle.Binfile.t

(** [interface_of t file] — the statics of [file]'s Unit after the last
    build: name, pids and environment, with
    {!Pickle.Binfile.no_code} for its codeUnit.  A table lookup. *)
val interface_of : t -> string -> Pickle.Binfile.t

(** [static_view t file] — the static view of [file]'s last rehydrated
    bin: the bytes and the decode that in-process compile jobs share
    when [file] is in their closure.  [None] if the manager holds no
    bin for [file]. *)
val static_view : t -> string -> Wire.view option

(** [link_snapshot t] — one [(name, fingerprint)] per unit of the last
    build, in link order, where the fingerprint is the MD5 of the
    unit's bin bytes, digested once per distinct bin.  A program's
    output is a function of its link order and its bins, so this is
    the key the daemon memoizes a [Run]'s response on. *)
val link_snapshot : t -> (string * string) list

(** What a {!recover} pass found on disk. *)
type recovery = {
  rv_intact : string list;  (** bins that rehydrate cleanly *)
  rv_quarantined : string list;
      (** damaged bins, set aside as [<file>.bin.quarantined] — the
          next build recompiles them instead of aborting *)
  rv_missing : string list;  (** sources with no bin at all *)
  rv_temps_swept : int;
      (** staging files of interrupted atomic commits removed *)
}

(** [recover t ~sources] — the crash-recovery pass: sweep staging files
    left by interrupted commits, validate every bin file (CRC + unit
    name) in a scratch session, and quarantine the damaged ones so the
    next {!build} schedules their recompilation.  After [recover], a
    crashed build is indistinguishable from a cold (or partially warm)
    cache: [build] converges to exactly the state a fault-free build
    would have produced. *)
val recover : t -> sources:string list -> recovery

val pp_recovery : Format.formatter -> recovery -> unit

(** [run ?output t ~sources] — execute every unit of the last build in
    dependency order (the order recorded by that build — only if
    [sources] differs from the last build's set is the order derived
    again, from {!dependency_graph});
    returns the final dynamic environment.  Each unit's codeUnit is
    decoded the first time it is linked and kept in its retained entry,
    so a later run after an edit decodes only the units whose bins
    changed.  A code section that does not parse raises
    {!Pickle.Buf.Corrupt}, like any damaged bin. *)
val run : ?output:(string -> unit) -> t -> sources:string list -> Link.Linker.dynenv

(** [outcome_of stats file] — ["recompiled"], ["loaded"], ["cache"]
    (stale but served from the unit cache), ["cutoff"] (recompiled,
    interface unchanged), ["failed"], ["skipped"] or ["unknown"].
    [outcome_of stats] indexes the build's partitions once: apply it
    once and ask it about every unit. *)
val outcome_of : stats -> string -> string

(** [summary_line stats] — the one-line
    ["N recompiled / M loaded / C cache / K cutoff (policy, backend, T ms)"]
    digest; a [" / F failed / S skipped"] segment appears when either
    partition is non-empty. *)
val summary_line : stats -> string

(** [pp_report ppf stats] — per-unit outcomes and timings, the
    diagnostics of failed units, then the summary line. *)
val pp_report : Format.formatter -> stats -> unit

(** [diag_json d] — one diagnostic as a JSON object (severity, phase,
    code, file, line, col, message, unit). *)
val diag_json : Support.Diag.t -> Obs.Json.t

(** [report_json stats] — the same report as JSON: policy, backend,
    wall time, the breakdown counts (including failed/skipped), one
    object per unit in build order, and a [diagnostics] array with
    every failed unit's diagnostics in deterministic order. *)
val report_json : stats -> Obs.Json.t
