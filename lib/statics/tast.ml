module Symbol = Support.Symbol

type lvar = Symbol.t

type tpat =
  | TPwild
  | TPvar of lvar
  | TPint of int
  | TPstring of string
  | TPtuple of tpat list
  | TPcon of Types.conrep * tpat option
  | TPexn of Types.addr * tpat option
  | TPref of tpat
  | TPas of lvar * tpat

type texp =
  | TEint of int
  | TEstring of string
  | TEvar of Types.addr
  | TEprim of Prim.t
  | TEcon of Types.conrep * texp option
  | TEconfn of Types.conrep
  | TEexncon of Types.addr * bool
  | TEfn of (tpat * texp) list
  | TEapp of texp * texp
  | TEtuple of texp list
  | TEselect of int * texp
  | TElet of tdec list * texp
  | TEif of texp * texp * texp
  | TEcase of texp * (tpat * texp) list * fail
  | TEraise of texp
  | TEhandle of texp * (tpat * texp) list
  | TEerror

and fail = FailMatch | FailBind

and tdec =
  | TDval of tpat * texp * fail
  | TDrec of (lvar * (tpat * texp) list) list
  | TDexn of lvar * Symbol.t * bool
  | TDstr of lvar * tstr
  | TDfct of lvar * lvar * tstr

and tstr =
  | TSvar of Types.addr
  | TSstruct of tdec list * (Symbol.t * texp) list
  | TSapp of Types.addr * tstr
  | TSthin of tstr * thinning
  | TSlet of tdec list * tstr

and thinning = (Symbol.t * thinitem) list
and thinitem = ThinVal | ThinStr of thinning
