(** The executor: the paper's [execute] over lambda-IR code.

    {!eval} converts a term once into OCaml closures over flat frames,
    then runs the result.  Conversion resolves every variable to a slot
    of the current activation's locals array, an index into the
    enclosing closure's capture array, or a constant of the initial
    environment; each function captures only its free variables.
    Imports ([Limport]) resolve once, against {!runtime.imports}.

    Execution is parameterised by a {!runtime}: the import map
    (dynamic pid → value, provided by the linker) and the output
    channel for [print].  [print] writes to the output of the innermost
    {!eval} running when it is called, so a function that one unit
    defines and another unit's execute calls prints to the caller's
    output. *)

module Symbol := Support.Symbol

(** A MiniSML exception packet crossing into OCaml. *)
exception Sml_raise of Value.t

(** [exit n] from the program. *)
exception Sml_exit of int

type runtime = {
  imports : Value.t Digestkit.Pid.Map.t;
  output : string -> unit;
}

(** [runtime ~imports ~output ()].  [output] receives [print]ed strings
    (defaults to stdout). *)
val runtime :
  ?output:(string -> unit) -> imports:Value.t Digestkit.Pid.Map.t -> unit -> runtime

(** Well-known identities of the predefined exceptions ([Match], [Bind],
    [Div], [Fail], [Subscript]); shared by every runtime so packets
    cross unit boundaries coherently. *)
val basis_exnid : Symbol.t -> Value.exnid

(** [fresh_exnid name has_arg] — a new generative exception identity. *)
val fresh_exnid : Symbol.t -> bool -> Value.exnid

(** [apply_prim rt p arg] — apply primitive [p] to [arg].  Raises
    {!Sml_raise} for [Div] and [Fail], {!Sml_exit} for [exit], and
    {!Support.Diag.Error} (phase [Execute]) on an ill-typed argument. *)
val apply_prim : runtime -> Statics.Prim.t -> Value.t -> Value.t

(** [eval rt env term] — convert [term], whose free variables are bound
    in [env], then run it.  Raises {!Sml_raise} for uncaught MiniSML
    exceptions and {!Support.Diag.Error} for genuine runtime-
    representation errors, which indicate a compiler bug or a stale bin
    file: phase [Execute] for an unbound variable or an ill-formed
    value, phase [Link] for an import missing from the runtime.  Unbound
    variables and missing imports are found during conversion: before
    any code runs for the top-level code, on the first call for the body
    of a top-level function.  Conversion of the top-level code is traced
    as the span [link.convert]. *)
val eval : runtime -> Value.t Symbol.Map.t -> Lambda.t -> Value.t

(** [run rt term] — evaluate a closed term in the empty environment. *)
val run : runtime -> Lambda.t -> Value.t
