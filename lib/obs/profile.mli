(** The persistent build profile store.

    Every build that did work records, per unit: its outcome, the
    structured cause of its recompilation (with culprit imports), its
    scheduler timestamps, its per-phase compile durations, and the
    interface pids of its imports.  A build that compiled nothing —
    every unit loaded up to date, and every unit already {!known} — is
    not recorded: its record would feed no aggregate and explain no
    rebuild, and it would push the last build that did work out of the
    history that [irm explain] and [irm profile] describe.  The store
    keeps a bounded history of whole builds plus a rolling per-unit
    aggregate (EWMA + max of compile time) across all builds — the
    duration feed a profile-guided critical-path scheduler needs
    (ROADMAP item 4), and the database behind [irm explain] and
    [irm profile].

    Persistence is a {!Vfs.Journal} store, as the cache index is: a
    CRC-64-trailed snapshot ([<dir>/store]) of the aggregates and the
    next id, plus one CRC-prefixed build record per segment
    ([<dir>/journal.<n>]); this module supplies the codec.  A record
    writes only its own line.  A compaction, past 8 records beyond the
    history, keeps the 16 newest records live: they are the retained
    history, and a record below the snapshot's next id joins it
    without being rolled into the aggregates again.  So a crash
    anywhere leaves a state that loads as a prefix of the true
    history, each compile aggregated once.  A store in the previous
    format (a snapshot holding the history, and one journal file)
    loads as it did, and the first compaction converts it; the
    history it held outside any segment is then dropped, its
    aggregates kept.  Anything that fails its CRC or does not parse
    is dropped — damage costs history or aggregates, never an
    error. *)

(** One unit's record within one build. *)
type unit_profile = {
  up_unit : string;
  up_outcome : string;
      (** [recompiled], [cutoff], [cache], [loaded], [failed] or
          [skipped] *)
  up_cause : string option;
      (** why it was recompiled ([source-changed],
          [import-pid-changed], [evicted], [corrupt-entry],
          [first-build], [forced]); [None] for up-to-date units *)
  up_culprits : string list;
      (** for [import-pid-changed]: the imports whose pid changed; for
          [skipped]: the failed root *)
  up_start_s : float;  (** seconds after build start it was prepared *)
  up_wall_s : float;  (** staleness check to merged result *)
  up_phases : (string * float) list;
      (** per-phase compile seconds ([parse], [elaborate], …) *)
  up_imports : (string * string) list;
      (** (direct dependency, its interface pid in hex; [""] unknown) *)
  up_priority : float;
      (** the critical-path priority the scheduler dispatched under (0
          on wavefront builds; records from before scheduling existed
          read back as 0) *)
}

(** One whole build. *)
type build_profile = {
  bp_id : int;  (** monotonically increasing across the store's life *)
  bp_policy : string;
  bp_backend : string;
  bp_wall_s : float;
  bp_jobs : int;
  bp_slot_busy_s : float list;  (** execute seconds per scheduler slot *)
  bp_schedule : string;
      (** [wavefront] or [critical-path]; old records read back as
          [wavefront]; the early-release count that older builds
          recorded is ignored *)
  bp_units : unit_profile list;  (** in build order *)
}

(** The rolling per-unit aggregate, fed only by actual compiles
    ([recompiled]/[cutoff] outcomes). *)
type agg = {
  ag_builds : int;  (** compiles aggregated *)
  ag_ewma_s : float;  (** exponentially weighted moving average *)
  ag_max_s : float;
  ag_last_s : float;
  ag_phases : (string * float) list;  (** per-phase EWMA seconds *)
}

type t

(** Default directory, [".irm-profile"]. *)
val default_dir : string

(** [load ?dir fs] — open the store rooted at [dir], replaying the
    snapshot and the live records (damaged state degrades to empty),
    in a [profile.load] trace span. *)
val load : ?dir:string -> Vfs.fs -> t

(** The id the next recorded build will get. *)
val next_id : t -> int

(** [record t build] — commit the build's line as the next segment,
    fold it into the history and aggregates, and compact when enough
    records have been appended. *)
val record : t -> build_profile -> unit

(** Retained builds, oldest first. *)
val builds : t -> build_profile list

(** The most recent build, if any. *)
val last : t -> build_profile option

val find_unit : build_profile -> string -> unit_profile option

(** [aggregate t unit] — the unit's rolling compile-time aggregate. *)
val aggregate : t -> string -> agg option

(** [known t unit] — whether the store has ever seen [unit] produce a
    usable result; tells an [evicted] bin apart from a
    [first-build]. *)
val known : t -> string -> bool

(** On-disk size of the snapshot and the live records, in bytes. *)
val store_bytes : t -> int

(** [critical_path b] — the import chain with the largest total unit
    wall time, dependency-first: the build's lower bound no matter how
    many slots run. *)
val critical_path : build_profile -> unit_profile list

(** [efficiency b] — busy slot-seconds over available slot-seconds in
    [0, 1]; [None] when the build recorded no wall time. *)
val efficiency : build_profile -> float option
