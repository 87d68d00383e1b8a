(** File-system abstraction for the compilation manager.

    The IRM only needs read/write/mtime/remove/rename, so it works over
    an abstract {!fs} record.  Three implementations:

    - {!memory}: an in-memory store with a *logical clock* (every write
      bumps it), giving the recompilation benches deterministic,
      race-free timestamps;
    - {!real}: the host file system (used by the [irm] command-line
      tool);
    - {!faulty}: a deterministic fault-injection wrapper over any other
      [fs], used by the crash-recovery test harness. *)

type fs = {
  fs_read : string -> string option;
  fs_write : string -> string -> unit;
  fs_mtime : string -> int option;  (** [None] if absent *)
  fs_remove : string -> unit;  (** idempotent: missing files are fine *)
  fs_rename : string -> string -> unit;
      (** atomic move, overwriting the destination — never torn *)
  fs_list : unit -> string list;  (** all known paths under the root *)
}

(** An injected failure: the operation did not happen (or, for a
    remove/rename, may be retried).  [fault_transient] faults succeed
    when retried — {!Sched}'s bounded retry loop keys on it. *)
exception Fault of { fault_op : string; fault_path : string; fault_transient : bool }

(** A simulated process death in the middle of an operation: for a
    write, a prefix of the bytes may already be on disk.  Never retry
    this — the harness catches it and restarts from the disk state the
    "dead" process left behind. *)
exception Crash of { crash_op : string; crash_path : string }

(** A fresh in-memory file system. *)
val memory : unit -> fs

(** [touch fs path] rewrites a file with its current content, bumping
    its timestamp — the classic way to provoke a timestamp-based
    rebuild. *)
val touch : fs -> string -> unit

(** [commit fs path content] — the atomic-commit protocol: write
    [content] to {!commit_path}[ path], then rename it over [path].
    A crash before the rename leaves [path] untouched (the orphan temp
    file is reclaimed by recovery/gc passes); after it, the new content
    is fully in place.  There is no in-between. *)
val commit : fs -> string -> string -> unit

(** [commit_path path] — the temp-file name [commit] stages into
    ([path ^ ".#commit"]). *)
val commit_path : string -> string

(** [is_commit_temp path] — recognizes staging files left behind by a
    crashed {!commit}. *)
val is_commit_temp : string -> bool

(** {1 Snapshot-and-journal stores}

    One engine under every store that keeps a state on disk as a
    snapshot plus the records appended since (the unit cache's index,
    the build profile): a store supplies only its codec.  Every file is
    written only by {!commit}.

    {v
      <snapshot>         journal-head <h>     the engine's header line
                         <codec bytes>        the store's state
      <journal>.<n>      one record and its newline, for every n >= h
                         up to the first missing number
    v}

    An append commits one new segment, numbered one past the last;
    no record rewrites an earlier one, and a number is never reused.
    Replay reads segments from the head until one is missing, and
    drops a segment that is not exactly one newline-terminated line
    (a torn write).  Past [keep + limit] live segments the store
    compacts: its snapshot is committed naming the new head (the
    [keep] newest segments stay live), then the segments below it are
    removed, oldest first.  The header and the head move in that one
    commit, so a crash before it leaves the old snapshot and every
    segment, and a crash after it leaves orphans below the head that
    are never read again and that the next compaction removes.

    A snapshot without the header is in the legacy format, in which
    stores were written before segments: one journal file rewritten
    whole per record.  Such a snapshot is handed to the codec as it
    is, the records of its single [<journal>] file are replayed before
    the segments (the piece after that file's last newline is torn,
    and dropped), and the first compaction removes that file.  A snapshot torn inside its header has lost its head:
    it reads as absent, and the head is the bottom of the top run of
    segment numbers on disk. *)
module Journal : sig
  type t

  (** [create fs ~snapshot ~journal ~limit ~keep] — a store at the
      snapshot path whose segments are [journal ^ "." ^ n]; a
      compaction keeps the [keep] newest records live, and happens
      once [limit] more have been appended.  Nothing is read yet. *)
  val create :
    fs -> snapshot:string -> journal:string -> limit:int -> keep:int -> t

  (** The snapshot's bytes after its header (all of them, for the
      legacy format), if there is one.  Reads the head: call it before
      {!replay}. *)
  val snapshot : t -> string option

  (** [replay t record] — hand every live record to [record], oldest
      first: the legacy format's journal lines, then each segment's
      line.  Damaged records that are whole lines are the codec's to
      drop. *)
  val replay : t -> (string -> unit) -> unit

  (** [append t record ~apply ~snapshot] — commit [record] (one line,
      no newline) as the next segment, then run [apply] to fold it
      into the store's state; past the limit, {!compact} with
      [snapshot ()]. *)
  val append :
    t -> string -> apply:(unit -> unit) -> snapshot:(unit -> string) -> unit

  (** [compact t content] — commit [content] as the snapshot under a
      header naming the new head, then remove the legacy format's
      journal and the segments below the head, orphans left by an
      earlier interrupted compaction included. *)
  val compact : t -> string -> unit

  (** On-disk size of the snapshot plus the live records, in bytes. *)
  val bytes : t -> int
end

(** The host file system rooted at [dir] (paths are joined to it).
    [fs_read] is one open, fstat and read loop: a missing file, a
    directory and a path through a regular file read as [None], and
    an unreadable file raises [Sys_error].  [fs_write] is a plain
    write (open, write loop, close), not atomic: a crash part-way
    leaves a torn file, which is why every persistent write goes
    through {!commit}.  [fs_write] and [fs_rename] make missing parent
    directories when the call fails for want of them, and raise
    [Sys_error] on failure; [fs_remove] ignores already-missing files;
    [fs_mtime] is one stat, in wall-clock seconds; [fs_list]
    enumerates [dir] recursively. *)
val real : dir:string -> fs

(** {1 Deterministic fault injection} *)

(** One scheduled failure.  Indices are 1-based per operation class
    (counted over eligible paths only — see [faulty]'s [only]):
    [Write_fail n] makes the [n]-th write raise a transient {!Fault};
    [Write_torn (n, k)] silently truncates the [n]-th write after [k]
    bytes; [Write_crash (n, k)] truncates after [k] bytes and raises
    {!Crash}; [Read_corrupt n] flips one byte of the [n]-th read's
    result; [Remove_fail n] / [Rename_fail n] raise a transient
    {!Fault}. *)
type fault =
  | Write_fail of int
  | Write_torn of int * int
  | Write_crash of int * int
  | Read_corrupt of int
  | Remove_fail of int
  | Rename_fail of int

val fault_name : fault -> string

(** One logged operation: its class, its path, and the name of the
    fault that fired on it (if any). *)
type op = { op_kind : string; op_path : string; op_fault : string option }

(** The mutable state behind a {!faulty} wrapper: per-class operation
    counters and the op-log. *)
type injector

(** [faulty ?only ~plan fs] — a wrapper over [fs] that injects the
    failures scheduled in [plan], deterministically: the same plan over
    the same operation sequence fires the same faults.  [only] filters
    which paths are counted and eligible (default: all).  Thread-safe;
    every operation is appended to the op-log. *)
val faulty : ?only:(string -> bool) -> plan:fault list -> fs -> fs * injector

(** The operations seen so far, oldest first. *)
val oplog : injector -> op list

(** Eligible writes counted so far. *)
val writes : injector -> int

(** How many scheduled faults actually fired. *)
val faults_fired : injector -> int

(** Whether a [Write_crash] fault has fired.  Once it has, the wrapper
    behaves like a dead process: every further operation raises
    {!Crash} and nothing reaches the backing store — restart from the
    backing [fs] to model the post-crash recovery. *)
val crashed : injector -> bool

(** [seeded_plan ~seed ~ops] — a small deterministic fault plan with
    injection points drawn from [1..ops].  Same seed, same plan. *)
val seeded_plan : seed:int -> ops:int -> fault list
