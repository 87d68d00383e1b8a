(** Phase-level tracing: nestable timed spans over the whole pipeline.

    Tracing is off by default and a disabled {!span} is a no-op wrapper
    around its thunk — no clock reads, no allocation beyond the closure
    at the call site — so instrumentation can stay in hot paths
    permanently.  When enabled, completed spans accumulate in memory;
    {!to_chrome} renders them in Chrome [trace_event] format (load the
    file in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto})
    and {!pp_tree} as an indented tree with durations for terminals.

    Spans carry a (pid, tid) pair: tid is the recording domain, pid 0
    means "this process".  Worker children record into their own buffer
    and ship it to the supervisor over the frame IPC ({!drain_wire} /
    {!inject}), which re-bases their clock by the epoch offset
    exchanged at the handshake and tags them with the child's OS pid —
    so one Chrome trace spans the parent, its domains, and every child,
    including crashed ones. *)

type event = {
  ev_name : string;
  ev_cat : string;  (** Chrome-trace category, e.g. ["compile"] *)
  ev_start_us : float;  (** microseconds since {!enable} *)
  ev_dur_us : float;
  ev_depth : int;  (** nesting depth at entry; 0 = top level *)
  ev_pid : int;  (** 0 = this process; a worker child's OS pid *)
  ev_tid : int;  (** the recording domain's id *)
  ev_args : (string * string) list;
}

val enable : unit -> unit
(** Start collecting; clears previously collected spans. *)

val disable : unit -> unit
val enabled : unit -> bool

(** [reset ()] — drop collected spans (tracing stays enabled/disabled
    as it was); re-bases the trace clock. *)
val reset : unit -> unit

(** [set_cap n] — keep only the most recent [n] completed spans,
    dropping the oldest as new ones land; [0] (the default) is
    unbounded.  A long-running daemon sets a cap so its trace buffer
    cannot grow without limit across thousands of requests. *)
val set_cap : int -> unit

(** [epoch_s ()] — the trace clock's origin, in [Unix.gettimeofday]
    seconds.  Exchanged at the worker handshake so the supervisor can
    correct a child's clock offset. *)
val epoch_s : unit -> float

(** [span ?cat ?args name f] — run [f ()] inside a timed span.  The
    span is recorded even when [f] raises (and the exception is
    re-raised).  When tracing is disabled this is exactly [f ()]
    (unless a {!record_phases} collector is active on this domain). *)
val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [span_with ?cat name f] — {!span} whose args are known only once
    the work is done: [f ()] returns its result with the span's args.
    A span whose [f] raises is recorded without args. *)
val span_with :
  ?cat:string -> string -> (unit -> 'a * (string * string) list) -> 'a

(** [instant ?cat ?args name] — a zero-duration marker. *)
val instant : ?cat:string -> ?args:(string * string) list -> string -> unit

(** [record_span ?cat ?args ?pid ~start_s name] — record a span after
    the fact: it started at [start_s] (absolute [Unix.gettimeofday]
    seconds) and ends now, on process [pid]'s track (default 0: this
    process).  {!Remote.Pool} stands in a [truncated] span on a dead
    child's track for the job the child died before flushing. *)
val record_span :
  ?cat:string ->
  ?args:(string * string) list ->
  ?pid:int ->
  start_s:float ->
  string ->
  unit

(** [record_phases f] — run [f ()] collecting the (name, seconds) of
    every span that completes inside it on this domain, {e whether or
    not} tracing is enabled; repeated names are summed.  Collectors
    nest (the innermost wins).  This is how compile jobs report
    per-phase durations to the profile store on untraced builds. *)
val record_phases : (unit -> 'a) -> 'a * (string * float) list

(** [events ()] — completed spans in chronological order (by start
    time, entry order breaking ties). *)
val events : unit -> event list

(** [drain_wire ()] — remove every completed event and serialize the
    batch for a worker link ([""] when empty).  Called in worker
    children to flush their buffer to the supervisor. *)
val drain_wire : unit -> string

(** [inject ~pid ~offset_us wire] — parse a {!drain_wire} batch from a
    child, shift every timestamp by [offset_us] (the child/parent epoch
    difference), tag the events with the child's [pid], and append them
    to this process's trace.  Returns the number of events injected;
    malformed input injects nothing (a misbehaving child must not break
    the build).  No-op when tracing is disabled. *)
val inject : pid:int -> offset_us:float -> string -> int

(** [to_chrome ()] — the collected trace as a Chrome [trace_event]
    JSON object: [{"traceEvents": [...], "displayTimeUnit": "ms"}],
    one complete ("ph":"X") event per span.  Events carry their
    process's pid (1 for this process) and domain tid. *)
val to_chrome : unit -> Json.t

(** [write_chrome path] — [to_chrome], serialized to [path]. *)
val write_chrome : string -> unit

(** [pp_tree ppf ()] — spans as an indented tree with durations. *)
val pp_tree : Format.formatter -> unit -> unit
