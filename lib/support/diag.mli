(** Structured compiler diagnostics.

    A diagnostic carries a severity, the phase that produced it, a
    stable machine-readable code, a source location, and optionally
    the compilation unit it belongs to.  Phases that cannot recover
    raise {!Error} (one diagnostic) or {!Errors} (a batch); phases
    that can recover accumulate diagnostics into a {!collector} and
    keep going, raising {!Errors} only once the unit's work is done
    (or the collector's limit is hit). *)

type severity = Error | Warning | Note

type phase =
  | Lex
  | Parse
  | Elaborate
  | Translate
  | Pickle
  | Link
  | Execute
  | Manager

type t = {
  severity : severity;
  phase : phase;
  code : string;  (** stable code, e.g. ["E0301"] or ["W0001"] *)
  loc : Loc.t;
  message : string;
  unit_name : string option;  (** owning compilation unit, if known *)
}

exception Error of t
exception Errors of t list

(** The human-readable error label of a phase (["type error"], …). *)
val phase_name : phase -> string

(** The stable machine-readable name of a phase (["elaborate"], …),
    used in JSON diagnostics. *)
val phase_id : phase -> string
val severity_name : severity -> string

val default_code : severity -> phase -> string
(** The generic code for a phase ([E0100] lex, [E0200] parse, [E0300]
    elaborate, …, [W0000]/[N0000] for warnings and notes). *)

val make :
  ?severity:severity -> ?code:string -> ?unit_name:string ->
  phase -> Loc.t -> string -> t

val error : phase -> Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format a message and raise {!Error} with the phase's default code. *)

val error_code :
  code:string -> ?unit_name:string -> phase -> Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error], with an explicit stable code (and optional unit name). *)

val pp : Format.formatter -> t -> unit
(** One-line rendering: [file:line.col-col: <label>: <message> [CODE]].
    Diagnostics at {!Loc.dummy} with a unit name print the unit name in
    the location field instead. *)

val to_string : t -> string

val pp_excerpt : source:string -> Format.formatter -> t -> unit
(** Given the unit's source text, print the offending line with a caret
    underline.  No-op for {!Loc.dummy} locations. *)

val render :
  ?source_of:(string -> string option) -> Format.formatter -> t -> unit
(** One-line rendering followed by a source excerpt when [source_of]
    can resolve the diagnostic's file to its text. *)

(** {1 Collectors} *)

type collector

val default_limit : int

val collector :
  ?limit:int -> ?werror:bool -> ?unit_name:string -> unit -> collector
(** A fresh collector.  [limit] bounds the number of errors accumulated
    before {!emit} gives up by raising {!Errors} (default
    {!default_limit}); [werror] promotes warnings to errors at emission
    time; [unit_name] is stamped onto diagnostics that lack one. *)

val emit : collector -> t -> unit
(** Record a diagnostic.  Raises {!Errors} with everything collected so
    far if this error brings the collector to its limit. *)

val error_into :
  collector -> phase -> Loc.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Format a message and {!emit} it as an error (does not raise unless
    the limit is hit). *)

val diags : collector -> t list
(** Everything collected, in emission order. *)

val error_count : collector -> int
val warning_count : collector -> int
val has_errors : collector -> bool

(** {1 Exception plumbing} *)

val of_exn : exn -> t list option
(** Diagnostics carried by {!Error}/{!Errors}, [None] for other
    exceptions. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run a computation, catching {!Error} (and the first diagnostic of
    an {!Errors} batch) as [Error d]. *)

val guard_all : (unit -> 'a) -> ('a, t list) result
(** Like {!guard} but preserves the whole batch. *)
