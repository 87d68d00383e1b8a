(** Pretty-printing of MiniSML abstract syntax.

    The output is valid MiniSML concrete syntax (modulo parenthesisation,
    which is conservative), so [parse ∘ print ∘ parse = parse ∘ print] —
    a property the test suite checks. *)

val pp_ty : Format.formatter -> Ast.ty -> unit
val pp_pat : Format.formatter -> Ast.pat -> unit
val pp_exp : Format.formatter -> Ast.exp -> unit
val pp_dec : Format.formatter -> Ast.dec -> unit
val pp_sigexp : Format.formatter -> Ast.sigexp -> unit
val pp_strexp : Format.formatter -> Ast.strexp -> unit
val exp_to_string : Ast.exp -> string
