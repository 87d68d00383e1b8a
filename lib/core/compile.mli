(** The visible compiler (sections 3, 6 and 7 of the paper): separate
    compilation and type-safe linkage exposed as ordinary functions.

    {v
      compile : source × statenv → Unit
      execute : codeUnit × dynenv → dynenv
    v}

    A {!session} owns the compilation context (the stamp-indexed object
    table) and the layered static environment of everything loaded so
    far.  Compiling a unit:

    + elaborates it against the basis plus its imports' interfaces,
    + hashes the exported environment into the unit's intrinsic
      (static) pid, rebinding provisional stamps to intrinsic ones,
    + derives a dynamic pid for each exported module,
    + translates the code to a closed lambda term abstracted over its
      imports, and
    + records the interface pids of the units it was compiled against —
      the information cutoff recompilation needs. *)

type session

(** A fresh session: the context holds only the initial basis. *)
val new_session : unit -> session

val context : session -> Statics.Context.t

(** The basis environment of the session. *)
val basis_env : session -> Statics.Types.env

(** [compile session ~name ~source ~imports] — compile one unit.
    [imports] are the already-compiled units whose exports the source
    may reference, in scope order.  [optimize] (default [true]) runs
    the lambda simplifier over the unit's code.

    Without [diags], raises {!Support.Diag.Error} on the first
    front-end failure (fail-fast).  With a [diags] collector, the
    lexer, parser and elaborator recover and accumulate every
    diagnostic they can; if any is an error the whole batch is raised
    as {!Support.Diag.Errors} before translation, so a broken unit
    still reports all its problems in one compile and the error type
    never escapes into a pickled interface. *)
val compile :
  ?optimize:bool ->
  ?warn:(Support.Loc.t -> string -> unit) ->
  ?diags:Support.Diag.collector ->
  session ->
  name:string ->
  source:string ->
  imports:Pickle.Binfile.t list ->
  Pickle.Binfile.t

(** [load session bytes] — rehydrate a bin file into the session
    (registers its type constructors).  Raises {!Pickle.Buf.Corrupt} on
    a damaged file. *)
val load : session -> string -> Pickle.Binfile.t

(** [rehydrate session decoded] — register an already-decoded bin in the
    session, parsing nothing: [load session bytes] is
    [rehydrate session (Pickle.Binfile.decode bytes)]. *)
val rehydrate : session -> Pickle.Binfile.decoded -> Pickle.Binfile.t

(** [save session unit] — pickle a unit to bytes. *)
val save : session -> Pickle.Binfile.t -> string

(** [execute ?output unit dynenv] — run the unit's code with its imports
    satisfied from [dynenv]; returns [dynenv] plus the unit's exports.
    The linker verifies every import pid first (type-safe linkage). *)
val execute :
  ?output:(string -> unit) ->
  ?bin_path:string ->
  Pickle.Binfile.t ->
  Link.Linker.dynenv ->
  Link.Linker.dynenv

(** [env_of_units units] — the layered static environment exporting all
    of [units]' interfaces (later units shadow); what a dependent unit
    is compiled against. *)
val env_of_units : session -> Pickle.Binfile.t list -> Statics.Types.env
