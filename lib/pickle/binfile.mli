(** The bin-file format: a complete pickled compilation Unit.

    {v
    Unit = { name, static_pid, statenv, import interface pids, codeUnit }
    v}

    Layout: magic, then the {e static blob} as one length-prefixed
    string (unit name, static pid, import-interface list, the own stamp
    table with dehydrated definitions, the environment tree with stubs
    for external references), then the codeUnit (imports, exports,
    code), and a fixed-width CRC-64 trailer guarding against
    corruption.  Reading is two steps.  {!decode} verifies the CRC
    {e before parsing anything} — a damaged file is a checked
    {!Buf.Corrupt}, never a wrong environment and never a
    partially-registered context — then checks the magic and parses,
    in no context.  {!rehydrate} registers the unit's own type
    constructors in one context ("rehydration", section 4); one decode
    may be rehydrated into many sessions.

    The two sections are needed at different times: cutoff
    recompilation reads only the statics, and only [execute] reads the
    code.  So a full bin can also be read one section at a time:
    {!decode_static} parses the static blob alone, and {!decode_code}
    the codeUnit alone, each after checking the CRC of the whole file.

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

(** A parsed bin not yet registered in any context: the unit and the
    definitions of the type constructors it owns.  Immutable: a decoded
    environment reaches no [Tvar] cell ({!Serial.read_env} has no case
    that builds one), so nothing elaborated against it can write
    through it, and one decode may be rehydrated into any number of
    sessions, on any domain. *)
type decoded

(** [decode bytes] — verify CRC and magic, then parse the bin, in no
    context.  Accepts both full and static bins; a static bin decodes
    with {!no_code}.  Counts one [pickle.decodes] and the bytes in
    [pickle.bytes_read], inside a [pickle.read] span, and one
    [pickle.code_decodes] for a full bin.
    Raises {!Buf.Corrupt} on damage. *)
val decode : string -> decoded

(** [decode_static bytes] — {!decode} without the code section: the
    CRC is still checked over the whole file, then only the magic and
    the static blob are parsed, and the unit carries {!no_code}.
    Counts like {!decode}: one [pickle.decodes], the bytes in
    [pickle.bytes_read], inside a [pickle.read] span.
    Raises {!Buf.Corrupt} on damage to the file or to its static blob;
    a code section that does not parse goes unnoticed until
    {!decode_code} reads it. *)
val decode_static : string -> decoded

(** [decode_code bytes] — the codeUnit of a full bin (a static bin's is
    {!no_code}): the CRC is checked over the whole file, the static
    blob is skipped unparsed, and the code section is parsed.  Counts
    one [pickle.code_decodes] (as does a {!decode} of a full bin),
    inside a [pickle.read_code] span; [pickle.decodes] and
    [pickle.bytes_read] are left alone.
    Raises {!Buf.Corrupt} on damage. *)
val decode_code : string -> Link.Codeunit.t

(** [rehydrate ctx d] — register the unit's own stamps in [ctx] and
    return the unit.  Parses nothing; counts one [pickle.rehydrations]. *)
val rehydrate : Statics.Context.t -> decoded -> t

(** [read ctx bytes] is [rehydrate ctx (decode bytes)]. *)
val read : Statics.Context.t -> string -> t

(** [size_of ctx unit] — serialized size in bytes (for benches). *)
val size_of : Statics.Context.t -> t -> int
