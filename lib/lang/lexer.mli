(** Hand-written lexer for MiniSML.

    SML comments nest; string literals support the escapes
    backslash-n, -t, -backslash, -quote and decimal (backslash-ddd).
    Negative integer literals are written with [~] as in SML (e.g. [~3]);
    [~4611686018427387904] is [min_int].  A literal outside the native
    int range is a lexical error (E0100). *)

type t

(** [make ~file source] lexes the whole of [source].  Without [diags]
    the first lexical error raises {!Support.Diag.Error}; with a
    collector, errors are recorded and scanning resumes one character
    past the failure point — except an out-of-range integer literal,
    which is consumed and stands in the stream as [INT 0]. *)
val make : ?diags:Support.Diag.collector -> file:string -> string -> t

(** Current token (EOF once exhausted). *)
val peek : t -> Token.t

(** Location of the current token. *)
val loc : t -> Support.Loc.t

(** Token after the current one, without advancing. *)
val peek2 : t -> Token.t

(** Consume the current token and return it. *)
val next : t -> Token.t

(** [all ~file source] is the full token stream with locations, EOF last.
    Mainly for tests and the dependency scanner. *)
val all :
  ?diags:Support.Diag.collector ->
  file:string -> string -> (Token.t * Support.Loc.t) list
