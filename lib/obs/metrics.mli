(** Named build metrics: monotonic counters and gauges.

    A metric is registered once by name ({!counter} and {!gauge} are
    idempotent) and lives for the whole process; instrumented modules
    keep the handle in a top-level binding so the hot path is a single
    mutable-field update.  {!reset} zeroes values between builds without
    losing registrations.

    The metric names used across the pipeline (see README,
    "Observability"):

    {v
    compile.units          units compiled (front end ran end to end)
    build.recompiled       units recompiled by the last IRM builds
    build.loaded           units loaded up to date from bin files
    build.cutoff_hits      recompiles whose interface pid was unchanged
    depend.parses          sources the IRM parsed for its dependency scan
    pickle.bytes_written   bin-file bytes produced
    pickle.bytes_read      bin-file bytes parsed
    pickle.rehydrations    environments rehydrated from bin files
    hash.pids              intrinsic interface pids computed
    simplify.passes        lambda-simplifier passes run
    simplify.rewrites      lambda nodes eliminated by the simplifier
    v} *)

type t

(** [counter name] — find or register a monotonic counter.
    Raises [Invalid_argument] if [name] is registered as a gauge. *)
val counter : string -> t

(** [gauge name] — find or register a gauge (free to move down).
    Raises [Invalid_argument] if [name] is registered as a counter. *)
val gauge : string -> t

val name : t -> string
val value : t -> int

val incr : t -> unit

(** [add m n] — raises [Invalid_argument] for negative [n] on a
    counter; counters are monotonic. *)
val add : t -> int -> unit

(** [set m v] — gauges only; raises [Invalid_argument] on a counter. *)
val set : t -> int -> unit

(** [find name] — current value of a registered metric. *)
val find : string -> int option

(** [snapshot ()] — all registered metrics, sorted by name. *)
val snapshot : unit -> (string * int) list

(** [reset ()] — zero every value; registrations survive. *)
val reset : unit -> unit

(** [to_json ()] — [{"metric name": value, ...}], sorted by name. *)
val to_json : unit -> Json.t

val pp : Format.formatter -> unit -> unit
