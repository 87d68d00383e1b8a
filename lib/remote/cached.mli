(** The shared cache service: many builders, one content-addressed
    store, over sockets.

    The store is the PR-2 unit cache, sharded by key prefix: keys are
    hex MD5 pids, so the first hex digit (mod the shard count) spreads
    entries across [shards] independent {!Cache.t} instances, each with
    its own directory, journal, and LRU budget — journal compaction and
    eviction in one shard never blocks the others.

    Correctness across the network leans on two properties the local
    cache already has.  {b Commit ordering}: [Cache.store] commits the
    object file (atomic rename) strictly before appending the index
    record, and the service acknowledges a put ({!Protocol.k_cache_ok})
    only after [store] returns — so by the time any builder can observe
    the key, the object it names is committed (renamed into place: that
    survives the service process crashing, not an OS crash or power
    loss — nothing calls [fsync]), no matter which machine asked.  {b Last-writer-wins idempotent puts}: keys are
    content addresses, so two builders racing to put the same key carry
    byte-identical objects; the service asserts that instead of
    locking, logs the (impossible outside corruption) mismatch, and
    lets the last writer win. *)

type t

(** [create ?shards ?budget_bytes ~dir addr fs] — bind the service on
    [addr], storing shard [i] under [dir/shard-<i>].  [shards] defaults
    to 4; [budget_bytes] is the {e per-shard} LRU budget. *)
val create :
  ?shards:int -> ?budget_bytes:int -> dir:string -> Transport.addr -> Vfs.fs -> t

val addr : t -> Transport.addr

(** Requests served since start. *)
val served : t -> int

(** Puts whose key already held different bytes (corruption tell-tale;
    expected to stay 0). *)
val conflicts : t -> int

val step : ?timeout_s:float -> t -> unit
val running : t -> bool
val run : t -> unit
val stop : t -> unit
