(** Advisory build lock.

    The profile store and the cache index number their appended
    records in process memory: a daemon and a stray [irm build]
    running in the same project directory could commit two records
    under one number and lose one of them.  This lock serializes them — the daemon takes it for the
    duration of each build request, a one-shot [irm build] for the
    duration of its build — and the second acquirer gets a clear
    diagnostic naming the holder instead of silent corruption.

    Implemented with [Unix.lockf] (POSIX advisory record locking) over
    a lock file next to the stores, so it works on any host file
    system and evaporates with the holding process: a crashed build
    never leaves a stale lock behind.  The holder's pid is a
    fixed-width line written over the last holder's, so the file is
    truncated only when it has another size. *)

(** The lock file's name, relative to the project root. *)
val lock_file : string

(** Raised when the lock is already held; [holder] is the pid recorded
    by the current owner (best effort — [""] if unreadable). *)
exception Held of { lock_path : string; holder : string }

type t

(** [acquire ~dir] — take the lock for project root [dir], or raise
    {!Held}.  Non-blocking: contention is an immediate, explicit
    failure, never a silent wait.  Traced as a [lock.acquire] span. *)
val acquire : dir:string -> t

(** [release t] — drop the lock.  Idempotent. *)
val release : t -> unit

(** [with_lock ~dir f] — {!acquire}, waiting up to a second for the
    holder to finish before {!Held} escapes, run [f ()], always
    {!release}.  Every build, a daemon's and a one-shot's, takes the
    lock this way. *)
val with_lock : dir:string -> (unit -> 'a) -> 'a
