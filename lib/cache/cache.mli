(** Content-addressed compiled-unit cache.

    The paper's pids make a compiled unit a pure function of
    [(source, import interface pids, compiler version)] — so that
    triple, hashed, is a sound address for the resulting bin bytes.
    Looking a unit up by content generalizes the paper's cutoff across
    {e builds, branches and checkouts}: any edit that is later reverted,
    any sibling checkout compiling the same sources against the same
    interfaces, hits instead of recompiling.

    The store lives on a {!Vfs.fs} (in-memory for tests, the real file
    system for the CLI) under a directory:

    {v
      <dir>/index            snapshot: the head line, then one line per
                             entry (key size last-used)
      <dir>/journal.<n>      one record appended since, per file:
                               + key size last-used   (stored)
                               - key                  (dropped)
                               @ key last-used        (recency touch)
      <dir>/objects/<key>    the bin bytes
    v}

    The index and its segments are a {!Vfs.Journal} store (compacted
    past 128 records, keeping none); this module supplies their codec.
    Every persistent mutation is crash-safe: object bytes are written
    through {!Vfs.commit}, as the engine writes the index and each
    segment, and an object is committed {e before} a segment records
    its key — so a crash anywhere leaves either a consistent cache or
    an orphaned object that {!gc} reclaims, never an index entry
    pointing at torn bytes.  An index and single [journal] in the
    previous format load as they did; the first compaction converts
    them.

    Eviction is LRU by a logical clock persisted in the index: when the
    byte total exceeds the budget, least-recently-used entries are
    dropped.  A corrupt index, journal or object is never an error —
    damaged state degrades to misses (the consumer must still validate
    the bytes it gets back, e.g. by un-pickling them, and report
    {!invalidate} on failure). *)

type t

(** Cumulative totals and current occupancy. *)
type stats = {
  cs_entries : int;
  cs_bytes : int;  (** object bytes currently stored *)
  cs_budget : int;
  cs_hits : int;  (** process-lifetime counters, all instances *)
  cs_misses : int;
  cs_evictions : int;
  cs_stores : int;
  cs_invalidated : int;
      (** entries dropped by {!invalidate} — corrupt or mismatched
          cache hits degraded to misses *)
}

(** Default directory ([".irm-cache"]) and budget (64 MiB). *)
val default_dir : string

val default_budget : int

(** [create ?dir ?budget_bytes fs] — open (or lazily initialize) a
    cache rooted at [dir] on [fs]. *)
val create : ?dir:string -> ?budget_bytes:int -> Vfs.fs -> t

(** [key ~version ~name ~source ~import_pids] — the content address of
    one compilation: compiler version, unit name, full source text and
    the {e sorted} import interface pids.  Stable across builds and
    processes. *)
val key :
  version:string ->
  name:string ->
  source:string ->
  import_pids:Digestkit.Pid.t list ->
  string

(** [find t key] — the stored bytes, bumping the entry's recency;
    [None] counts a miss, [Some] a hit. *)
val find : t -> string -> string option

(** [store t key bytes] — insert (or refresh) an entry, then evict
    least-recently-used entries until the budget holds.  An entry
    larger than the whole budget is not stored. *)
val store : t -> string -> string -> unit

(** [invalidate t key] — drop an entry whose bytes failed validation
    downstream (corrupt object).  Not counted as an eviction. *)
val invalidate : t -> string -> unit

(** A cache viewed as its three operations.  The driver builds against
    this record rather than {!t}, so a local store, a remote
    read-through composite (Remote.Cache_client), or a test double all
    plug in uniformly. *)
type ops = {
  o_find : string -> string option;
  o_store : string -> string -> unit;
  o_invalidate : string -> unit;
}

(** [ops t] — the obvious projection of a local cache. *)
val ops : t -> ops

(** What one {!gc} pass did. *)
type gc_report = {
  gc_evicted : int;  (** LRU evictions forced by the budget *)
  gc_orphans : int;
      (** orphaned objects and stale commit-staging files removed *)
  gc_reclaimed_bytes : int;  (** bytes freed by removing orphans *)
}

(** [gc t] — re-enforce the budget, compact the records into the index
    snapshot, and reclaim orphans: objects the index does not know
    (a store that crashed between the object commit and the index
    update) and staging files left by interrupted commits. *)
val gc : t -> gc_report

(** [clear t] — drop every entry. *)
val clear : t -> unit

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
val pp_gc_report : Format.formatter -> gc_report -> unit
