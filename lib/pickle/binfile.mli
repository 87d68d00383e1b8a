(** The bin-file format: a complete pickled compilation Unit.

    {v
    Unit = { name, static_pid, statenv, import interface pids, codeUnit }
    v}

    Layout: magic, then the {e static blob} as one length-prefixed
    string (unit name, static pid, import-interface list, the own stamp
    table with dehydrated definitions, the environment tree with stubs
    for external references), then the codeUnit (imports, exports,
    code), and a fixed-width CRC-64 trailer guarding against
    corruption.  Reading verifies the CRC {e before parsing anything}
    — a damaged file is a checked {!Buf.Corrupt}, never a wrong
    environment and never a partially-registered context — then checks
    the magic and registers the unit's own type constructors in the
    context ("rehydration", section 4).

    Because the static blob is length-prefixed, the {e static view} of
    a unit — all a dependent needs to compile against it, per the
    paper's statenv/codeUnit factoring — can be sliced out of a full
    bin by pure byte surgery ({!static_of_full}).  Static bins carry
    their own magic and rehydrate with a {!no_code} placeholder
    codeUnit. *)

type t = {
  uf_name : string;  (** the compilation unit's name (source path) *)
  uf_static_pid : Digestkit.Pid.t;  (** intrinsic pid of the interface *)
  uf_env : Statics.Types.env;  (** exported static environment *)
  uf_import_statics : (string * Digestkit.Pid.t) list;
      (** interface pids of the units this one was compiled against —
          the cutoff-recompilation record *)
  uf_name_statics : (Support.Symbol.t * Digestkit.Pid.t) list;
      (** per-binding interface pids of this unit's exports *)
  uf_import_name_statics : (Support.Symbol.t * Digestkit.Pid.t) list;
      (** per-binding interface pids of the module names this unit
          actually referenced — the selective-recompilation record *)
  uf_codeunit : Link.Codeunit.t;
}

(** The format magic ("SMLSEP.BIN.…").  Changes whenever the layout
    does, so it doubles as the compiler-version component of
    content-addressed cache keys. *)
val magic : string

(** The magic of a static-only bin ("SMLSEP.STA.…"): the static blob
    without a codeUnit. *)
val static_magic : string

(** The placeholder codeUnit carried by a rehydrated static view: empty
    imports/exports, unit code.  Never linked — dependents consume only
    the statics. *)
val no_code : Link.Codeunit.t

(** [write ctx unit] — serialize to bytes. *)
val write : Statics.Context.t -> t -> string

(** [static_of_full bytes] — slice the static view out of a full bin by
    byte surgery alone: no context, no re-pickling.  A static bin
    passes through unchanged.
    Raises {!Buf.Corrupt} on damage. *)
val static_of_full : string -> string

(** [read ctx bytes] — parse, verify magic + CRC, register the unit's
    own stamps in [ctx], and return the Unit.  Accepts both full and
    static bins; a static bin comes back with {!no_code}.
    Raises {!Buf.Corrupt} on damage. *)
val read : Statics.Context.t -> string -> t

(** [size_of ctx unit] — serialized size in bytes (for benches). *)
val size_of : Statics.Context.t -> t -> int
