module Symbol = Support.Symbol
open Ast

let pp_sym ppf sym = Format.pp_print_string ppf (Symbol.name sym)

let pp_list sep pp ppf items =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf sep)
    pp ppf items

let rec pp_ty ppf ty =
  match ty.ty_desc with
  | Tarrow (a, b) -> Format.fprintf ppf "%a -> %a" pp_ty_tuple a pp_ty b
  | _ -> pp_ty_tuple ppf ty

and pp_ty_tuple ppf ty =
  match ty.ty_desc with
  | Ttuple parts -> pp_list " * " pp_ty_app ppf parts
  | _ -> pp_ty_app ppf ty

and pp_ty_app ppf ty =
  match ty.ty_desc with
  | Tcon ([], path) -> pp_path ppf path
  | Tcon ([ arg ], path) ->
    Format.fprintf ppf "%a %a" pp_ty_atom arg pp_path path
  | Tcon (args, path) ->
    Format.fprintf ppf "(%a) %a" (pp_list ", " pp_ty) args pp_path path
  | _ -> pp_ty_atom ppf ty

and pp_ty_atom ppf ty =
  match ty.ty_desc with
  | Tvar name -> Format.fprintf ppf "'%a" pp_sym name
  | Tcon ([], path) -> pp_path ppf path
  | _ -> Format.fprintf ppf "(%a)" pp_ty ty

let rec pp_pat ppf pat =
  match pat.pat_desc with
  | Pconstraint (p, ty) -> Format.fprintf ppf "%a : %a" pp_pat_cons p pp_ty ty
  | _ -> pp_pat_cons ppf pat

and pp_pat_cons ppf pat =
  match pat.pat_desc with
  | Pcon (path, Some { pat_desc = Ptuple [ a; b ]; _ })
    when path.qualifiers = [] && Symbol.name path.base = "::" ->
    Format.fprintf ppf "%a :: %a" pp_pat_app a pp_pat_cons b
  | _ -> pp_pat_app ppf pat

and pp_pat_app ppf pat =
  match pat.pat_desc with
  | Pcon (path, Some arg) ->
    Format.fprintf ppf "%a %a" pp_path path pp_pat_atom arg
  | Pas (name, p) -> Format.fprintf ppf "%a as %a" pp_sym name pp_pat p
  | _ -> pp_pat_atom ppf pat

and pp_pat_atom ppf pat =
  match pat.pat_desc with
  | Pwild -> Format.pp_print_string ppf "_"
  | Pvar name -> pp_sym ppf name
  | Pint n -> Format.pp_print_string ppf (Support.Int_text.to_string n)
  | Pstring s -> Format.fprintf ppf "%S" s
  | Ptuple [] -> Format.pp_print_string ppf "()"
  | Ptuple pats -> Format.fprintf ppf "(%a)" (pp_list ", " pp_pat) pats
  | Pcon (path, None) -> pp_path ppf path
  | Plist pats -> Format.fprintf ppf "[%a]" (pp_list ", " pp_pat) pats
  | Pcon (_, Some _) | Pas _ | Pconstraint _ ->
    Format.fprintf ppf "(%a)" pp_pat pat

let rec pp_exp ppf exp =
  match exp.exp_desc with
  | Eif (c, t, e) ->
    Format.fprintf ppf "@[<hv>if %a@ then %a@ else %a@]" pp_exp c pp_exp t pp_exp e
  | Ecase (scrutinee, rules) ->
    Format.fprintf ppf "@[<hv>case %a of@ %a@]" pp_exp scrutinee pp_match rules
  | Efn rules -> Format.fprintf ppf "@[<hv>fn %a@]" pp_match rules
  | Eraise e -> Format.fprintf ppf "raise %a" pp_exp e
  | Ehandle (e, rules) ->
    Format.fprintf ppf "@[<hv>%a@ handle %a@]" pp_exp_app e pp_match rules
  | Eandalso (a, b) ->
    Format.fprintf ppf "%a andalso %a" pp_exp_app a pp_exp_app b
  | Eorelse (a, b) -> Format.fprintf ppf "%a orelse %a" pp_exp_app a pp_exp_app b
  | Econstraint (e, ty) -> Format.fprintf ppf "%a : %a" pp_exp_app e pp_ty ty
  | _ -> pp_exp_app ppf exp

and pp_match ppf rules =
  pp_list "@ | " (fun ppf r ->
      Format.fprintf ppf "@[%a =>@ %a@]" pp_pat r.rule_pat pp_exp r.rule_exp)
    ppf rules

and pp_exp_app ppf exp =
  match exp.exp_desc with
  | Eapp ({ exp_desc = Evar path; _ }, { exp_desc = Etuple [ a; b ]; _ })
    when path.qualifiers = [] && is_infix_name (Symbol.name path.base) ->
    Format.fprintf ppf "%a %s %a" pp_exp_atom a (Symbol.name path.base)
      pp_exp_atom b
  | Eapp (f, arg) -> Format.fprintf ppf "%a %a" pp_exp_app f pp_exp_atom arg
  | _ -> pp_exp_atom ppf exp

and is_infix_name = function
  | "+" | "-" | "*" | "/" | "div" | "mod" | "^" | "::" | "@" | "=" | "<>"
  | "<" | ">" | "<=" | ">=" | ":=" ->
    true
  | _ -> false

and pp_exp_atom ppf exp =
  match exp.exp_desc with
  | Eint n -> Format.pp_print_string ppf (Support.Int_text.to_string n)
  | Estring s -> Format.fprintf ppf "%S" s
  | Evar path ->
    if path.qualifiers = [] && is_infix_name (Symbol.name path.base) then
      Format.fprintf ppf "op %s" (Symbol.name path.base)
    else pp_path ppf path
  | Etuple [] -> Format.pp_print_string ppf "()"
  | Etuple exps -> Format.fprintf ppf "(%a)" (pp_list ", " pp_exp) exps
  | Elist exps -> Format.fprintf ppf "[%a]" (pp_list ", " pp_exp) exps
  | Eselect n -> Format.fprintf ppf "#%d" n
  | Elet (decs, body) ->
    Format.fprintf ppf "@[<hv>let@;<1 2>@[<v>%a@]@ in@;<1 2>%a@ end@]"
      (pp_list "@ " pp_dec) decs pp_exp body
  | Eapp _ | Eif _ | Ecase _ | Efn _ | Eraise _ | Ehandle _ | Eandalso _
  | Eorelse _ | Econstraint _ ->
    Format.fprintf ppf "(%a)" pp_exp exp

and pp_dec ppf dec =
  match dec.dec_desc with
  | Dval (pat, exp) ->
    Format.fprintf ppf "@[<hv 2>val %a =@ %a@]" pp_pat pat pp_exp exp
  | Dvalrec binds ->
    let pp_bind ppf (name, rules) =
      Format.fprintf ppf "%a = fn %a" pp_sym name pp_match rules
    in
    Format.fprintf ppf "@[<hv 2>val rec %a@]" (pp_list "@ and " pp_bind) binds
  | Dfun binds ->
    let pp_clause ppf clause =
      Format.fprintf ppf "%a %a = %a" pp_sym clause.fc_name
        (pp_list " " pp_pat_atom) clause.fc_pats pp_exp clause.fc_body
    in
    let pp_bind ppf bind = pp_list "@   | " pp_clause ppf bind.fb_clauses in
    Format.fprintf ppf "@[<hv 2>fun %a@]" (pp_list "@ and " pp_bind) binds
  | Dtype binds ->
    let pp_bind ppf bind =
      Format.fprintf ppf "%a%a = %a" pp_tyvars bind.typ_tyvars pp_sym
        bind.typ_name pp_ty bind.typ_defn
    in
    Format.fprintf ppf "@[type %a@]" (pp_list "@ and " pp_bind) binds
  | Ddatatype binds -> Format.fprintf ppf "@[datatype %a@]" pp_datbinds binds
  | Dexception binds ->
    let pp_bind ppf (name, arg) =
      match arg with
      | None -> pp_sym ppf name
      | Some ty -> Format.fprintf ppf "%a of %a" pp_sym name pp_ty ty
    in
    Format.fprintf ppf "@[exception %a@]" (pp_list "@ and " pp_bind) binds
  | Dstructure binds ->
    let pp_bind ppf (name, ascription, body) =
      Format.fprintf ppf "%a%a =@ %a" pp_sym name pp_opt_ascription ascription
        pp_strexp body
    in
    Format.fprintf ppf "@[<hv 2>structure %a@]" (pp_list "@ and " pp_bind) binds
  | Dsignature binds ->
    let pp_bind ppf (name, body) =
      Format.fprintf ppf "%a =@ %a" pp_sym name pp_sigexp body
    in
    Format.fprintf ppf "@[<hv 2>signature %a@]" (pp_list "@ and " pp_bind) binds
  | Dfunctor binds ->
    let pp_bind ppf fb =
      Format.fprintf ppf "%a (%a : %a)%a =@ %a" pp_sym fb.fct_name pp_sym
        fb.fct_param pp_sigexp fb.fct_param_sig pp_opt_ascription
        fb.fct_ascription pp_strexp fb.fct_body
    in
    Format.fprintf ppf "@[<hv 2>functor %a@]" (pp_list "@ and " pp_bind) binds
  | Dlocal (hidden, visible) ->
    Format.fprintf ppf "@[<v>local@;<1 2>@[<v>%a@]@ in@;<1 2>@[<v>%a@]@ end@]"
      (pp_list "@ " pp_dec) hidden (pp_list "@ " pp_dec) visible
  | Dopen paths -> Format.fprintf ppf "open %a" (pp_list " " pp_path) paths

and pp_tyvars ppf = function
  | [] -> ()
  | [ one ] -> Format.fprintf ppf "'%a " pp_sym one
  | several ->
    Format.fprintf ppf "(%a) "
      (pp_list ", " (fun ppf tv -> Format.fprintf ppf "'%a" pp_sym tv))
      several

and pp_datbinds ppf binds =
  let pp_con ppf con =
    match con.con_arg with
    | None -> pp_sym ppf con.con_name
    | Some ty -> Format.fprintf ppf "%a of %a" pp_sym con.con_name pp_ty ty
  in
  let pp_bind ppf bind =
    Format.fprintf ppf "%a%a = %a" pp_tyvars bind.dat_tyvars pp_sym
      bind.dat_name (pp_list " | " pp_con) bind.dat_cons
  in
  pp_list "@ and " pp_bind ppf binds

and pp_opt_ascription ppf = function
  | None -> ()
  | Some (Transparent sigexp) -> Format.fprintf ppf " : %a" pp_sigexp sigexp
  | Some (Opaque sigexp) -> Format.fprintf ppf " :> %a" pp_sigexp sigexp

and pp_strexp ppf strexp =
  match strexp.str_desc with
  | Svar path -> pp_path ppf path
  | Sstruct decs ->
    Format.fprintf ppf "@[<v>struct@;<1 2>@[<v>%a@]@ end@]" (pp_list "@ " pp_dec)
      decs
  | Sapp (path, arg) -> Format.fprintf ppf "%a(%a)" pp_path path pp_strexp arg
  | Sascribe (body, Transparent sigexp) ->
    Format.fprintf ppf "%a : %a" pp_strexp body pp_sigexp sigexp
  | Sascribe (body, Opaque sigexp) ->
    Format.fprintf ppf "%a :> %a" pp_strexp body pp_sigexp sigexp
  | Slet (decs, body) ->
    Format.fprintf ppf "@[<v>let@;<1 2>@[<v>%a@]@ in@;<1 2>%a@ end@]"
      (pp_list "@ " pp_dec) decs pp_strexp body

and pp_sigexp ppf sigexp =
  match sigexp.sig_desc with
  | Gvar name -> pp_sym ppf name
  | Gsig specs ->
    Format.fprintf ppf "@[<v>sig@;<1 2>@[<v>%a@]@ end@]" (pp_list "@ " pp_spec)
      specs
  | Gwhere (base, wherespecs) ->
    let pp_ws ppf ws =
      Format.fprintf ppf "type %a%a = %a" pp_tyvars ws.ws_tyvars pp_path
        ws.ws_path pp_ty ws.ws_defn
    in
    Format.fprintf ppf "%a where %a" pp_sigexp base (pp_list " and " pp_ws)
      wherespecs

and pp_spec ppf spec =
  match spec.spec_desc with
  | SPval (name, ty) -> Format.fprintf ppf "val %a : %a" pp_sym name pp_ty ty
  | SPtype (tyvars, name, None) ->
    Format.fprintf ppf "type %a%a" pp_tyvars tyvars pp_sym name
  | SPtype (tyvars, name, Some ty) ->
    Format.fprintf ppf "type %a%a = %a" pp_tyvars tyvars pp_sym name pp_ty ty
  | SPdatatype binds -> Format.fprintf ppf "@[datatype %a@]" pp_datbinds binds
  | SPexception (name, None) -> Format.fprintf ppf "exception %a" pp_sym name
  | SPexception (name, Some ty) ->
    Format.fprintf ppf "exception %a of %a" pp_sym name pp_ty ty
  | SPstructure (name, sigexp) ->
    Format.fprintf ppf "@[<hv 2>structure %a :@ %a@]" pp_sym name pp_sigexp
      sigexp
  | SPinclude sigexp -> Format.fprintf ppf "include %a" pp_sigexp sigexp

let exp_to_string exp = Format.asprintf "%a" pp_exp exp
