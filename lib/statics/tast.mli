(** Elaborated (typed, resolved) abstract syntax.

    The elaborator resolves every name to an {!Types.addr}, every
    datatype constructor to its {!Types.conrep}, and alpha-renames all
    runtime bindings to process-unique symbols, so the lambda
    translation needs no environment other than the import map. *)

module Symbol := Support.Symbol

type lvar = Symbol.t

type tpat =
  | TPwild
  | TPvar of lvar
  | TPint of int
  | TPstring of string
  | TPtuple of tpat list
  | TPcon of Types.conrep * tpat option  (** datatype constructor *)
  | TPexn of Types.addr * tpat option  (** exception: runtime identity *)
  | TPref of tpat  (** [ref p] pattern: match the contents *)
  | TPas of lvar * tpat

type texp =
  | TEint of int
  | TEstring of string
  | TEvar of Types.addr
  | TEprim of Prim.t  (** primitive used as a first-class value *)
  | TEcon of Types.conrep * texp option  (** saturated constructor use *)
  | TEconfn of Types.conrep  (** constructor used as a function value *)
  | TEexncon of Types.addr * bool
      (** exception constructor; the flag is [true] if it carries an
          argument (a function value), [false] for a bare packet *)
  | TEfn of (tpat * texp) list  (** [fn match] *)
  | TEapp of texp * texp
  | TEtuple of texp list
  | TEselect of int * texp  (** 1-based tuple projection *)
  | TElet of tdec list * texp
  | TEif of texp * texp * texp
  | TEcase of texp * (tpat * texp) list * fail
  | TEraise of texp
  | TEhandle of texp * (tpat * texp) list
  | TEerror
      (** placeholder for an expression the elaborator reported an
          error for; never reaches translation (the collector raises
          before the translate phase) *)

(** Which standard exception a non-exhaustive match raises. *)
and fail = FailMatch | FailBind

and tdec =
  | TDval of tpat * texp * fail
  | TDrec of (lvar * (tpat * texp) list) list  (** recursive functions *)
  | TDexn of lvar * Symbol.t * bool  (** fresh exception; name, has-arg *)
  | TDstr of lvar * tstr  (** bind a structure value *)
  | TDfct of lvar * lvar * tstr  (** functor: λ param. body *)

(** Structure-level terms. *)
and tstr =
  | TSvar of Types.addr
  | TSstruct of tdec list * (Symbol.t * texp) list
      (** declarations, then the export record: field name → value *)
  | TSapp of Types.addr * tstr  (** functor application *)
  | TSthin of tstr * thinning  (** signature coercion: restrict fields *)
  | TSlet of tdec list * tstr  (** [let decs in strexp end] *)

(** Recursive field restriction produced by signature matching. *)
and thinning = (Symbol.t * thinitem) list

and thinitem =
  | ThinVal  (** keep the field as-is *)
  | ThinStr of thinning  (** keep, recursively restricted *)
