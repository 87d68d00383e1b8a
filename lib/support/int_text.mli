(** SML's integer text, the one definition the lexer's diagnostics, the
    evaluator, the simplifier and the value printers share. *)

(** [~?[0-9]+]: [to_string ~-5 = "~5"], and [min_int] prints exactly. *)
val to_string : int -> string

(** Inverse of {!to_string}: [None] for any other text (no [-], [+],
    [0x] or [_]) and for a value outside [int]'s range. *)
val of_string : string -> int option
