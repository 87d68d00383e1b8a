module Symbol = Support.Symbol
module Loc = Support.Loc
module Diag = Support.Diag
module A = Lang.Ast
open Types

let err loc fmt = Diag.error Diag.Elaborate loc fmt

type state = {
  ctx : Context.t;
  mutable level : int;
  warn : Loc.t -> string -> unit;
  diags : Diag.collector option;
}

(* non-fatal finding: always goes to the [warn] callback, and — when
   elaborating under a collector — also becomes a structured warning
   with a stable code *)
let warn_diag st ~code loc msg =
  st.warn loc msg;
  match st.diags with
  | None -> ()
  | Some c ->
    Diag.emit c (Diag.make ~severity:Diag.Warning ~code Diag.Elaborate loc msg)

(* report exhaustiveness/redundancy findings for one compiled match *)
let check_match st loc ~warn_inexhaustive tpats =
  List.iter
    (fun finding ->
      match finding with
      | `Inexhaustive ->
        if warn_inexhaustive then
          warn_diag st ~code:"W0001" loc "match nonexhaustive"
      | `Redundant i ->
        warn_diag st ~code:"W0002" loc
          (Printf.sprintf "match rule %d is redundant" (i + 1)))
    (Matchcheck.check tpats)

let fresh_ty st = Unify.fresh_tyvar ~level:st.level ()

let unify_at st loc t1 t2 =
  try Unify.unify st.ctx t1 t2
  with Unify.Unify_error (a, b) ->
    let message =
      Printf.sprintf "type mismatch: %s vs %s"
        (Tyformat.ty_to_string st.ctx a)
        (Tyformat.ty_to_string st.ctx b)
    in
    let d = Diag.make ~code:"E0301" Diag.Elaborate loc message in
    (match st.diags with
    | None -> raise (Diag.Error d)
    | Some c ->
      (* report once, then poison both sides so later constraints on
         the same unification variables unify silently instead of
         producing a cascade of secondary mismatches *)
      Diag.emit c d;
      Unify.poison st.ctx t1;
      Unify.poison st.ctx t2)

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

let resolve_holder env loc (path : A.path) =
  let rec walk env = function
    | [] -> env
    | q :: rest -> (
      match Symbol.Map.find_opt q env.strs with
      | Some info -> walk info.str_env rest
      | None ->
        Diag.error_code ~code:"E0303" Diag.Elaborate loc
          "unbound structure %a" Symbol.pp q)
  in
  walk env path.A.qualifiers

let resolve_str env loc (path : A.path) =
  let holder = resolve_holder env loc path in
  match Symbol.Map.find_opt path.A.base holder.strs with
  | Some info -> info
  | None ->
    Diag.error_code ~code:"E0303" Diag.Elaborate loc "unbound structure %a"
      A.pp_path path

let resolve_val env loc path =
  let holder = resolve_holder env loc path in
  match Symbol.Map.find_opt path.A.base holder.vals with
  | Some info -> info
  | None ->
    Diag.error_code ~code:"E0302" Diag.Elaborate loc "unbound variable %a"
      A.pp_path path

let resolve_tycon env loc path =
  let holder = resolve_holder env loc path in
  match Symbol.Map.find_opt path.A.base holder.tycons with
  | Some stamp -> stamp
  | None ->
    Diag.error_code ~code:"E0304" Diag.Elaborate loc
      "unbound type constructor %a" A.pp_path path

let resolve_fct env loc path =
  let holder = resolve_holder env loc path in
  match Symbol.Map.find_opt path.A.base holder.fcts with
  | Some info -> info
  | None ->
    Diag.error_code ~code:"E0305" Diag.Elaborate loc "unbound functor %a"
      A.pp_path path

let resolve_sig env loc name =
  match Symbol.Map.find_opt name env.sigs with
  | Some info -> info
  | None ->
    Diag.error_code ~code:"E0306" Diag.Elaborate loc "unbound signature %a"
      Symbol.pp name

(* ------------------------------------------------------------------ *)
(* Type expressions                                                    *)
(* ------------------------------------------------------------------ *)

(* [scope] maps explicit type variables; behaviour on an unknown tyvar
   differs between val-declaration scopes (fresh unification variable)
   and rigid binders (error), so callers supply it. *)
let rec elab_ty st env scope (ty : A.ty) =
  match ty.A.ty_desc with
  | A.Tvar name -> scope name ty.A.ty_loc
  | A.Tcon (args, path) ->
    let stamp = resolve_tycon env ty.A.ty_loc path in
    let arity =
      match Context.find st.ctx stamp with
      | Some info -> info.tyc_arity
      | None -> err ty.A.ty_loc "type %a has no definition" A.pp_path path
    in
    if List.length args <> arity then
      err ty.A.ty_loc "type constructor %a expects %d argument(s), got %d"
        A.pp_path path arity (List.length args);
    Tcon (stamp, List.map (elab_ty st env scope) args)
  | A.Tarrow (a, b) -> Tarrow (elab_ty st env scope a, elab_ty st env scope b)
  | A.Ttuple parts -> Ttuple (List.map (elab_ty st env scope) parts)

(* A val-declaration tyvar scope: unknown tyvars become fresh
   unification variables, shared across all annotations in the dec. *)
let val_scope st =
  let table = Symbol.Table.create 4 in
  fun name _loc ->
    match Symbol.Table.find_opt table name with
    | Some ty -> ty
    | None ->
      let ty = fresh_ty st in
      Symbol.Table.add table name ty;
      ty

(* A rigid scope over an explicit binder list: tyvars map to [Tgen]
   indices; anything else is an error. *)
let rigid_scope binders =
  let table = Symbol.Table.create 4 in
  List.iteri (fun i name -> Symbol.Table.replace table name (Tgen i)) binders;
  fun name loc ->
    match Symbol.Table.find_opt table name with
    | Some ty -> ty
    | None -> err loc "unbound type variable '%a" Symbol.pp name

(* Spec-val scope: tyvars are implicitly generalized in order of first
   appearance.  Returns the scope and a counter of distinct tyvars. *)
let specval_scope () =
  let table = Symbol.Table.create 4 in
  let next = ref 0 in
  let scope name _loc =
    match Symbol.Table.find_opt table name with
    | Some ty -> ty
    | None ->
      let ty = Tgen !next in
      incr next;
      Symbol.Table.add table name ty;
      ty
  in
  (scope, next)

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

type binding = { b_name : Symbol.t; b_lvar : Symbol.t; b_ty : ty }

let con_result_ty st loc info arg_ty_opt =
  (* Instantiate a constructor's scheme and split it into (arg, result). *)
  let inst = Unify.instantiate ~level:st.level info.vi_scheme in
  match (Unify.head_normalize st.ctx inst, arg_ty_opt) with
  | Tarrow (arg, res), Some pat_arg_ty ->
    unify_at st loc arg pat_arg_ty;
    res
  | Tarrow _, None -> err loc "constructor expects an argument"
  | res, None -> res
  | _, Some _ -> err loc "constructor takes no argument"

let rec elab_pat st env scope (pat : A.pat) : Tast.tpat * ty * binding list =
  let loc = pat.A.pat_loc in
  match pat.A.pat_desc with
  | A.Pwild -> (Tast.TPwild, fresh_ty st, [])
  | A.Pint n -> (Tast.TPint n, Basis.int_ty, [])
  | A.Pstring s -> (Tast.TPstring s, Basis.string_ty, [])
  | A.Pvar name -> (
    (* a lone lowercase name is a variable unless it is a constructor *)
    match Symbol.Map.find_opt name env.vals with
    | Some ({ vi_kind = Vcon (_, cd); _ } as info) ->
      let ty = con_result_ty st loc info None in
      (Tast.TPcon (conrep_of cd, None), ty, [])
    | Some ({ vi_kind = Vexn _; _ } as info) ->
      let ty = con_result_ty st loc info None in
      (Tast.TPexn (info.vi_addr, None), ty, [])
    | Some { vi_kind = Vplain; _ } | None ->
      let lvar = Symbol.fresh (Symbol.name name) in
      let ty = fresh_ty st in
      (Tast.TPvar lvar, ty, [ { b_name = name; b_lvar = lvar; b_ty = ty } ]))
  | A.Pcon (path, arg) -> (
    (* [ref] patterns are special: the primitive is not a constructor *)
    let is_ref =
      path.A.qualifiers = [] && String.equal (Symbol.name path.A.base) "ref"
    in
    match (is_ref, arg) with
    | true, Some argp ->
      let targ, argty, binds = elab_pat st env scope argp in
      (Tast.TPref targ, Basis.ref_ty argty, binds)
    | _ -> (
      let info = resolve_val env loc path in
      match info.vi_kind with
      | Vcon (_, cd) ->
        let targ, argty, binds =
          match arg with
          | None -> (None, None, [])
          | Some argp ->
            let t, ty, b = elab_pat st env scope argp in
            (Some t, Some ty, b)
        in
        let ty = con_result_ty st loc info argty in
        (Tast.TPcon (conrep_of cd, targ), ty, binds)
      | Vexn _ ->
        let targ, argty, binds =
          match arg with
          | None -> (None, None, [])
          | Some argp ->
            let t, ty, b = elab_pat st env scope argp in
            (Some t, Some ty, b)
        in
        let ty = con_result_ty st loc info argty in
        (Tast.TPexn (info.vi_addr, targ), ty, binds)
      | Vplain ->
        err loc "%a is not a constructor" A.pp_path path))
  | A.Ptuple pats ->
    let parts = List.map (elab_pat st env scope) pats in
    let tpats = List.map (fun (t, _, _) -> t) parts in
    let tys = List.map (fun (_, ty, _) -> ty) parts in
    let binds = List.concat_map (fun (_, _, b) -> b) parts in
    (Tast.TPtuple tpats, Ttuple tys, binds)
  | A.Plist pats ->
    let elem_ty = fresh_ty st in
    let nil_pat = Tast.TPcon (conrep_of Basis.nil_cd, None) in
    let rec build = function
      | [] -> (nil_pat, [])
      | p :: rest ->
        let tp, ty, binds = elab_pat st env scope p in
        unify_at st p.A.pat_loc ty elem_ty;
        let tail, tail_binds = build rest in
        ( Tast.TPcon (conrep_of Basis.cons_cd, Some (Tast.TPtuple [ tp; tail ])),
          binds @ tail_binds )
    in
    let tpat, binds = build pats in
    (tpat, Basis.list_ty elem_ty, binds)
  | A.Pas (name, inner) ->
    let tinner, ty, binds = elab_pat st env scope inner in
    let lvar = Symbol.fresh (Symbol.name name) in
    ( Tast.TPas (lvar, tinner),
      ty,
      { b_name = name; b_lvar = lvar; b_ty = ty } :: binds )
  | A.Pconstraint (inner, ann) ->
    let tinner, ty, binds = elab_pat st env scope inner in
    let ann_ty = elab_ty st env scope ann in
    unify_at st loc ty ann_ty;
    (tinner, ty, binds)

let check_distinct loc binds =
  match binds with
  | [] | [ _ ] -> ()
  | _ ->
    let seen = Symbol.Table.create 8 in
    List.iter
      (fun b ->
        if Symbol.Table.mem seen b.b_name then
          err loc "duplicate variable %a in pattern" Symbol.pp b.b_name
        else Symbol.Table.add seen b.b_name ())
      binds

(* ------------------------------------------------------------------ *)
(* Value restriction                                                   *)
(* ------------------------------------------------------------------ *)

let rec non_expansive env (exp : A.exp) =
  match exp.A.exp_desc with
  | A.Eint _ | A.Estring _ | A.Efn _ | A.Eselect _ -> true
  | A.Evar _ -> true
  | A.Etuple parts | A.Elist parts -> List.for_all (non_expansive env) parts
  | A.Econstraint (inner, _) -> non_expansive env inner
  | A.Eapp ({ A.exp_desc = A.Evar path; _ }, arg) -> (
    (* constructor applications are values, except [ref] *)
    match
      Symbol.Map.find_opt path.A.base
        (try (resolve_holder env Loc.dummy path).vals
         with Diag.Error _ -> Symbol.Map.empty)
    with
    | Some { vi_kind = Vcon _; _ } | Some { vi_kind = Vexn _; _ } ->
      non_expansive env arg
    | Some { vi_kind = Vplain; _ } | None -> false)
  | A.Eapp _ | A.Elet _ | A.Eif _ | A.Ecase _ | A.Eandalso _ | A.Eorelse _
  | A.Eraise _ | A.Ehandle _ ->
    false

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let bool_rep b =
  conrep_of (if b then Basis.true_cd else Basis.false_cd)

let rec elab_exp_ st env scope (exp : A.exp) : Tast.texp * ty =
  let loc = exp.A.exp_loc in
  match exp.A.exp_desc with
  | A.Eint n -> (Tast.TEint n, Basis.int_ty)
  | A.Estring s -> (Tast.TEstring s, Basis.string_ty)
  | A.Evar path -> (
    match resolve_val env loc path with
    | exception Diag.Error d when st.diags <> None ->
      (* recover with the error type: every use of the unknown name
         elaborates, but produces no further diagnostics *)
      (match st.diags with Some c -> Diag.emit c d | None -> assert false);
      (Tast.TEerror, Terror)
    | info -> (
    let ty = Unify.instantiate ~level:st.level info.vi_scheme in
    match info.vi_kind with
    | Vplain -> (
      match info.vi_addr with
      | AdPrim p -> (Tast.TEprim p, ty)
      | addr -> (Tast.TEvar addr, ty))
    | Vcon (_, cd) ->
      if cd.cd_arg = None then (Tast.TEcon (conrep_of cd, None), ty)
      else (Tast.TEconfn (conrep_of cd), ty)
    | Vexn _ ->
      let has_arg =
        match Unify.head_normalize st.ctx ty with
        | Tarrow _ -> true
        | _ -> false
      in
      (Tast.TEexncon (info.vi_addr, has_arg), ty)))
  | A.Eselect _ -> err loc "a tuple selector #n must be applied directly"
  | A.Eapp ({ A.exp_desc = A.Eselect n; _ }, arg) -> (
    let targ, arg_ty = elab_exp_ st env scope arg in
    match Unify.head_normalize st.ctx arg_ty with
    | Ttuple parts when List.length parts >= n ->
      (Tast.TEselect (n, targ), List.nth parts (n - 1))
    | Ttuple parts ->
      err loc "#%d applied to a %d-tuple" n (List.length parts)
    | _ ->
      err loc
        "cannot determine the tuple type for #%d; add a type annotation" n)
  | A.Eapp (f, arg) -> (
    let tf, f_ty = elab_exp_ st env scope f in
    let targ, arg_ty = elab_exp_ st env scope arg in
    let res_ty = fresh_ty st in
    unify_at st loc f_ty (Tarrow (arg_ty, res_ty));
    (* saturate constructor applications *)
    match tf with
    | Tast.TEconfn rep -> (Tast.TEcon (rep, Some targ), res_ty)
    | _ -> (Tast.TEapp (tf, targ), res_ty))
  | A.Etuple parts ->
    let elabs = List.map (elab_exp_ st env scope) parts in
    (Tast.TEtuple (List.map fst elabs), Ttuple (List.map snd elabs))
  | A.Elist parts ->
    let elem_ty = fresh_ty st in
    let telems =
      List.map
        (fun p ->
          let t, ty = elab_exp_ st env scope p in
          unify_at st p.A.exp_loc ty elem_ty;
          t)
        parts
    in
    let nil_exp = Tast.TEcon (conrep_of Basis.nil_cd, None) in
    let texp =
      List.fold_right
        (fun hd tail ->
          Tast.TEcon (conrep_of Basis.cons_cd, Some (Tast.TEtuple [ hd; tail ])))
        telems nil_exp
    in
    (texp, Basis.list_ty elem_ty)
  | A.Efn rules ->
    let arg_ty = fresh_ty st in
    let res_ty = fresh_ty st in
    let trules = elab_match st env scope rules arg_ty res_ty in
    (Tast.TEfn trules, Tarrow (arg_ty, res_ty))
  | A.Elet (decs, body) ->
    let delta, tdecs = elab_decs_ st env decs in
    let tbody, ty = elab_exp_ st (env_union env delta) scope body in
    (Tast.TElet (tdecs, tbody), ty)
  | A.Eif (cond, then_, else_) ->
    let tcond, cond_ty = elab_exp_ st env scope cond in
    unify_at st cond.A.exp_loc cond_ty Basis.bool_ty;
    let tthen, then_ty = elab_exp_ st env scope then_ in
    let telse, else_ty = elab_exp_ st env scope else_ in
    unify_at st loc then_ty else_ty;
    (Tast.TEif (tcond, tthen, telse), then_ty)
  | A.Ecase (scrutinee, rules) ->
    let tscrut, scrut_ty = elab_exp_ st env scope scrutinee in
    let res_ty = fresh_ty st in
    let trules = elab_match st env scope rules scrut_ty res_ty in
    (Tast.TEcase (tscrut, trules, Tast.FailMatch), res_ty)
  | A.Eandalso (a, b) ->
    let ta, a_ty = elab_exp_ st env scope a in
    let tb, b_ty = elab_exp_ st env scope b in
    unify_at st a.A.exp_loc a_ty Basis.bool_ty;
    unify_at st b.A.exp_loc b_ty Basis.bool_ty;
    (Tast.TEif (ta, tb, Tast.TEcon (bool_rep false, None)), Basis.bool_ty)
  | A.Eorelse (a, b) ->
    let ta, a_ty = elab_exp_ st env scope a in
    let tb, b_ty = elab_exp_ st env scope b in
    unify_at st a.A.exp_loc a_ty Basis.bool_ty;
    unify_at st b.A.exp_loc b_ty Basis.bool_ty;
    (Tast.TEif (ta, Tast.TEcon (bool_rep true, None), tb), Basis.bool_ty)
  | A.Eraise body ->
    let tbody, body_ty = elab_exp_ st env scope body in
    unify_at st loc body_ty Basis.exn_ty;
    (Tast.TEraise tbody, fresh_ty st)
  | A.Ehandle (body, rules) ->
    let tbody, body_ty = elab_exp_ st env scope body in
    (* handlers re-raise unmatched packets, so inexhaustiveness is the
       norm (SML does not warn here either) *)
    let trules =
      elab_match ~warn_inexhaustive:false st env scope rules Basis.exn_ty
        body_ty
    in
    (Tast.TEhandle (tbody, trules), body_ty)
  | A.Econstraint (body, ann) ->
    let tbody, body_ty = elab_exp_ st env scope body in
    let ann_ty = elab_ty st env scope ann in
    unify_at st loc body_ty ann_ty;
    (tbody, body_ty)

and elab_match ?(warn_inexhaustive = true) st env scope rules arg_ty res_ty =
  let trules =
    List.map
      (fun rule ->
        let tpat, pat_ty, binds = elab_pat st env scope rule.A.rule_pat in
        check_distinct rule.A.rule_pat.A.pat_loc binds;
        unify_at st rule.A.rule_pat.A.pat_loc pat_ty arg_ty;
        let env' =
          List.fold_left
            (fun env b ->
              bind_val b.b_name
                {
                  vi_scheme = monotype b.b_ty;
                  vi_kind = Vplain;
                  vi_addr = AdLvar b.b_lvar;
                }
                env)
            env binds
        in
        let tbody, body_ty = elab_exp_ st env' scope rule.A.rule_exp in
        unify_at st rule.A.rule_exp.A.exp_loc body_ty res_ty;
        (tpat, tbody))
      rules
  in
  (match rules with
  | first :: _ ->
    check_match st first.A.rule_pat.A.pat_loc ~warn_inexhaustive
      (List.map fst trules)
  | [] -> ());
  trules

(* ------------------------------------------------------------------ *)
(* Core declarations                                                   *)
(* ------------------------------------------------------------------ *)

and generalize_binding st env expansive b =
  let scheme =
    if expansive then monotype b.b_ty
    else Unify.generalize st.ctx ~level:st.level b.b_ty
  in
  bind_val b.b_name
    { vi_scheme = scheme; vi_kind = Vplain; vi_addr = AdLvar b.b_lvar }
    env

and elab_dec_ st env (dec : A.dec) : env * Tast.tdec list =
  let loc = dec.A.dec_loc in
  match dec.A.dec_desc with
  | A.Dval (pat, exp) ->
    let scope = val_scope st in
    st.level <- st.level + 1;
    let texp, exp_ty = elab_exp_ st env scope exp in
    let tpat, pat_ty, binds = elab_pat st env scope pat in
    check_distinct loc binds;
    unify_at st loc pat_ty exp_ty;
    st.level <- st.level - 1;
    (match Matchcheck.check [ tpat ] with
    | findings when List.mem `Inexhaustive findings ->
      warn_diag st ~code:"W0003" loc "binding not exhaustive"
    | _ -> ());
    let expansive = not (non_expansive env exp) in
    let delta =
      List.fold_left
        (fun acc b -> generalize_binding st acc expansive b)
        empty_env binds
    in
    (delta, [ Tast.TDval (tpat, texp, Tast.FailBind) ])
  | A.Dvalrec binds -> elab_valrec st env loc binds
  | A.Dfun funbinds ->
    let binds = List.map (desugar_funbind st loc) funbinds in
    elab_valrec st env loc binds
  | A.Dtype typebinds ->
    let _, delta =
      List.fold_left
        (fun (inner, delta) tb ->
          let scope = rigid_scope tb.A.typ_tyvars in
          (* later abbreviations may reference earlier ones *)
          let defn_ty = elab_ty st inner scope tb.A.typ_defn in
          let stamp = Stamp.fresh () in
          Context.register st.ctx stamp
            {
              tyc_name = tb.A.typ_name;
              tyc_arity = List.length tb.A.typ_tyvars;
              tyc_defn =
                Alias { arity = List.length tb.A.typ_tyvars; body = defn_ty };
            };
          ( bind_tycon tb.A.typ_name stamp inner,
            bind_tycon tb.A.typ_name stamp delta ))
        (env, empty_env) typebinds
    in
    (delta, [])
  | A.Ddatatype datbinds ->
    (elab_datbinds st env loc datbinds, [])
  | A.Dexception binds ->
    let delta, tdecs =
      List.fold_left
        (fun (delta, tdecs) (name, arg) ->
          let stamp = Stamp.fresh () in
          let lvar = Symbol.fresh (Symbol.name name) in
          let arg_ty =
            Option.map
              (fun ty ->
                elab_ty st env
                  (fun tv l -> err l "type variable '%a in exception" Symbol.pp tv)
                  ty)
              arg
          in
          let body =
            match arg_ty with
            | None -> Basis.exn_ty
            | Some t -> Tarrow (t, Basis.exn_ty)
          in
          let delta =
            bind_val name
              {
                vi_scheme = monotype body;
                vi_kind = Vexn stamp;
                vi_addr = AdLvar lvar;
              }
              delta
          in
          (delta, Tast.TDexn (lvar, name, arg_ty <> None) :: tdecs))
        (empty_env, []) binds
    in
    (delta, List.rev tdecs)
  | A.Dstructure binds ->
    (* [and]-bound structures are simultaneous: each elaborated in the
       original environment *)
    let results =
      List.map
        (fun (name, ascription, body) ->
          let str_env, tstr =
            elab_ascribed_str st env body ascription
          in
          (name, str_env, tstr))
        binds
    in
    List.fold_left
      (fun (delta, tdecs) (name, str_env, tstr) ->
        let lvar = Symbol.fresh (Symbol.name name) in
        let rebased = env_with_root_access (AdLvar lvar) str_env in
        let info =
          { str_stamp = Stamp.fresh (); str_env = rebased; str_addr = AdLvar lvar }
        in
        (bind_str name info delta, tdecs @ [ Tast.TDstr (lvar, tstr) ]))
      (empty_env, []) results
  | A.Dsignature binds ->
    let _, delta =
      List.fold_left
        (fun (inner, delta) (name, sigexp) ->
          let info = elab_sigexp st inner sigexp in
          (bind_sig name info inner, bind_sig name info delta))
        (env, empty_env) binds
    in
    (delta, [])
  | A.Dfunctor binds ->
    List.fold_left
      (fun (delta, tdecs) fb ->
        let info, tdec = elab_funbinding st env fb in
        (bind_fct fb.A.fct_name info delta, tdecs @ [ tdec ]))
      (empty_env, []) binds
  | A.Dlocal (hidden, visible) ->
    let delta1, td1 = elab_decs_ st env hidden in
    let delta2, td2 = elab_decs_ st (env_union env delta1) visible in
    (delta2, td1 @ td2)
  | A.Dopen paths ->
    let _, delta =
      List.fold_left
        (fun (inner, delta) path ->
          let info = resolve_str inner loc path in
          (env_union inner info.str_env, env_union delta info.str_env))
        (env, empty_env) paths
    in
    (delta, [])

and elab_valrec st env loc binds =
  let scope = val_scope st in
  st.level <- st.level + 1;
  let pre =
    List.map
      (fun (name, rules) ->
        let lvar = Symbol.fresh (Symbol.name name) in
        (name, lvar, fresh_ty st, rules))
      binds
  in
  let env' =
    List.fold_left
      (fun env (name, lvar, ty, _) ->
        bind_val name
          { vi_scheme = monotype ty; vi_kind = Vplain; vi_addr = AdLvar lvar }
          env)
      env pre
  in
  let trecs =
    List.map
      (fun (_, lvar, ty, rules) ->
        let arg_ty = fresh_ty st in
        let res_ty = fresh_ty st in
        let trules = elab_match st env' scope rules arg_ty res_ty in
        unify_at st loc ty (Tarrow (arg_ty, res_ty));
        (lvar, trules))
      pre
  in
  st.level <- st.level - 1;
  let delta =
    List.fold_left
      (fun delta (name, lvar, ty, _) ->
        let scheme = Unify.generalize st.ctx ~level:st.level ty in
        bind_val name
          { vi_scheme = scheme; vi_kind = Vplain; vi_addr = AdLvar lvar }
          delta)
      empty_env pre
  in
  (delta, [ Tast.TDrec trecs ])

(* [fun f p1 … pn = e | …]  ⇒  [val rec f = fn x1 => … => case (x1,…) of …] *)
and desugar_funbind _st loc fb =
  let clauses = fb.A.fb_clauses in
  let first = List.hd clauses in
  let name = first.A.fc_name in
  let arity = List.length first.A.fc_pats in
  List.iter
    (fun clause ->
      if not (Symbol.equal clause.A.fc_name name) then
        err fb.A.fb_loc "clauses of %a disagree on the function name" Symbol.pp
          name;
      if List.length clause.A.fc_pats <> arity then
        err fb.A.fb_loc "clauses of %a disagree on the number of arguments"
          Symbol.pp name)
    clauses;
  ignore loc;
  match (clauses, arity) with
  | [ only ], 1 ->
    (* single clause, single argument: a plain fn *)
    ( name,
      [ { A.rule_pat = List.hd only.A.fc_pats; A.rule_exp = only.A.fc_body } ] )
  | _ ->
    let dummy_loc = fb.A.fb_loc in
    let params =
      List.init arity (fun i -> Symbol.fresh (Printf.sprintf "arg%d" i))
    in
    let tuple_exp =
      match params with
      | [ single ] ->
        { A.exp_desc = A.Evar { A.qualifiers = []; base = single };
          A.exp_loc = dummy_loc }
      | several ->
        {
          A.exp_desc =
            A.Etuple
              (List.map
                 (fun p ->
                   { A.exp_desc = A.Evar { A.qualifiers = []; base = p };
                     A.exp_loc = dummy_loc })
                 several);
          A.exp_loc = dummy_loc;
        }
    in
    let case_rules =
      List.map
        (fun clause ->
          let pat =
            match clause.A.fc_pats with
            | [ single ] -> single
            | several ->
              { A.pat_desc = A.Ptuple several; A.pat_loc = dummy_loc }
          in
          { A.rule_pat = pat; A.rule_exp = clause.A.fc_body })
        clauses
    in
    let body =
      { A.exp_desc = A.Ecase (tuple_exp, case_rules); A.exp_loc = dummy_loc }
    in
    let fn =
      List.fold_right
        (fun p acc ->
          {
            A.exp_desc =
              A.Efn
                [
                  {
                    A.rule_pat =
                      { A.pat_desc = A.Pvar p; A.pat_loc = dummy_loc };
                    A.rule_exp = acc;
                  };
                ];
            A.exp_loc = dummy_loc;
          })
        params body
    in
    (* strip the outermost fn: val rec binds a match *)
    (match fn.A.exp_desc with
    | A.Efn rules -> (name, rules)
    | _ -> assert false)

and elab_datbinds st env loc datbinds =
  (* two-phase for mutual recursion *)
  let stamps =
    List.map
      (fun db ->
        let stamp = Stamp.fresh () in
        (db, stamp))
      datbinds
  in
  let env_with_tycons =
    List.fold_left
      (fun acc (db, stamp) ->
        (* provisionally register so arity checks succeed during
           constructor elaboration *)
        Context.register st.ctx stamp
          {
            tyc_name = db.A.dat_name;
            tyc_arity = List.length db.A.dat_tyvars;
            tyc_defn = Abstract;
          };
        bind_tycon db.A.dat_name stamp acc)
      env stamps
  in
  ignore loc;
  let delta =
    List.fold_left
      (fun delta (db, stamp) ->
        let arity = List.length db.A.dat_tyvars in
        let scope = rigid_scope db.A.dat_tyvars in
        let span = List.length db.A.dat_cons in
        let cds =
          List.mapi
            (fun tag cb ->
              {
                cd_name = cb.A.con_name;
                cd_arg =
                  Option.map (elab_ty st env_with_tycons scope) cb.A.con_arg;
                cd_tag = tag;
                cd_span = span;
              })
            db.A.dat_cons
        in
        (* overwrite the provisional Abstract with the real definition;
           Context.register keeps the first, so remove-and-readd via a
           dedicated path: we registered Abstract above, so we must
           replace it *)
        Context.register_replace st.ctx stamp
          { tyc_name = db.A.dat_name; tyc_arity = arity; tyc_defn = Data cds };
        let result_ty = Tcon (stamp, List.init arity (fun i -> Tgen i)) in
        let delta = bind_tycon db.A.dat_name stamp delta in
        List.fold_left
          (fun delta cd ->
            let body =
              match cd.cd_arg with
              | None -> result_ty
              | Some arg -> Tarrow (arg, result_ty)
            in
            bind_val cd.cd_name
              {
                vi_scheme = { arity; body };
                vi_kind = Vcon (stamp, cd);
                vi_addr = AdNone;
              }
              delta)
          delta cds)
      empty_env stamps
  in
  delta

(* ------------------------------------------------------------------ *)
(* Structure expressions                                               *)
(* ------------------------------------------------------------------ *)

and elab_ascribed_str st env body ascription =
  let str_env, tstr = elab_strexp st env body in
  match ascription with
  | None -> (str_env, tstr)
  | Some (A.Transparent sigexp) ->
    let sig_info = elab_sigexp st env sigexp in
    let _rz, result, thinning =
      Sigmatch.match_signature st.ctx ~loc:sigexp.A.sig_loc sig_info str_env
    in
    (result, Tast.TSthin (tstr, thinning))
  | Some (A.Opaque sigexp) ->
    let sig_info = elab_sigexp st env sigexp in
    let instance, thinning =
      Sigmatch.opaque_ascribe st.ctx ~loc:sigexp.A.sig_loc sig_info str_env
    in
    (instance, Tast.TSthin (tstr, thinning))

and export_fields delta =
  (* runtime record fields of a structure: plain values, exception
     constructors, substructures, functors — everything with a runtime
     presence except static datatype constructors *)
  let fields =
    fold_components delta ~init:[]
      ~valf:(fun name info acc ->
        match info.vi_kind with
        | Vplain -> (
          match info.vi_addr with
          | AdNone -> acc (* no runtime presence *)
          | AdPrim p -> (name, Tast.TEprim p) :: acc
          | addr -> (name, Tast.TEvar addr) :: acc)
        | Vexn _ -> (
          match info.vi_addr with
          | AdNone -> acc
          | addr -> (name, Tast.TEvar addr) :: acc)
        | Vcon _ -> acc)
      ~tycf:(fun _ _ acc -> acc)
      ~strf:(fun name info acc ->
        match info.str_addr with
        | AdNone -> acc
        | addr -> (name, Tast.TEvar addr) :: acc)
      ~sigf:(fun _ _ acc -> acc)
      ~fctf:(fun name info acc ->
        match info.fct_addr with
        | AdNone -> acc
        | addr -> (name, Tast.TEvar addr) :: acc)
  in
  List.rev fields

and elab_strexp st env (strexp : A.strexp) : env * Tast.tstr =
  let loc = strexp.A.str_loc in
  match strexp.A.str_desc with
  | A.Svar path -> (
    let info = resolve_str env loc path in
    match info.str_addr with
    | AdNone ->
      (* a static-only structure (initial basis): synthesize its record
         from the components' absolute addresses *)
      (info.str_env, Tast.TSstruct ([], export_fields info.str_env))
    | addr -> (info.str_env, Tast.TSvar addr))
  | A.Sstruct decs ->
    let delta, tdecs = elab_decs_ st env decs in
    (delta, Tast.TSstruct (tdecs, export_fields delta))
  | A.Sapp (path, arg) ->
    let fct = resolve_fct env loc path in
    let arg_env, targ = elab_strexp st env arg in
    let result, thinning =
      Sigmatch.apply_functor st.ctx ~loc fct arg_env
    in
    (result, Tast.TSapp (fct.fct_addr, Tast.TSthin (targ, thinning)))
  | A.Sascribe (body, ascription) ->
    elab_ascribed_str st env body (Some ascription)
  | A.Slet (decs, body) ->
    let delta, tdecs = elab_decs_ st env decs in
    let body_env, tbody = elab_strexp st (env_union env delta) body in
    (body_env, Tast.TSlet (tdecs, tbody))

(* ------------------------------------------------------------------ *)
(* Signature expressions                                               *)
(* ------------------------------------------------------------------ *)

and elab_sigexp st env (sigexp : A.sigexp) : sig_info =
  let loc = sigexp.A.sig_loc in
  match sigexp.A.sig_desc with
  | A.Gvar name -> resolve_sig env loc name
  | A.Gsig specs ->
    let delta, flex = elab_specs st env specs in
    { sig_stamp = Stamp.fresh (); sig_env = delta; sig_flex = flex }
  | A.Gwhere (base, wherespecs) ->
    let base_info = elab_sigexp st env base in
    List.fold_left
      (fun acc ws ->
        let scope = rigid_scope ws.A.ws_tyvars in
        let body = elab_ty st env scope ws.A.ws_defn in
        let tyfun = { arity = List.length ws.A.ws_tyvars; body } in
        Sigmatch.where_type st.ctx ~loc acc ws.A.ws_path tyfun)
      base_info wherespecs

and elab_specs st env specs =
  let _, delta, flex =
    List.fold_left
      (fun (env', delta, flex) spec ->
        let d, flex = elab_spec st env' flex spec in
        (env_union env' d, env_union delta d, flex))
      (env, empty_env, []) specs
  in
  (delta, flex)

(* one spec's bindings, elaborated in [env'], the outer env extended by
   the specs before it; and [flex] with the flexible stamps it adds *)
and elab_spec st env' flex spec =
  let loc = spec.A.spec_loc in
  match spec.A.spec_desc with
  | A.SPval (name, ty) ->
    let scope, _count = specval_scope () in
    let body = elab_ty st env' scope ty in
    (* count distinct Tgen occurrences for the scheme arity *)
    let rec max_gen acc = function
      | Tgen i -> max acc (i + 1)
      | Tcon (_, args) -> List.fold_left max_gen acc args
      | Tarrow (a, b) -> max_gen (max_gen acc a) b
      | Ttuple parts -> List.fold_left max_gen acc parts
      | Tvar _ | Terror -> acc
    in
    let arity = max_gen 0 body in
    ( bind_val name
        { vi_scheme = { arity; body }; vi_kind = Vplain; vi_addr = AdNone }
        empty_env,
      flex )
  | A.SPtype (tyvars, name, None) ->
    let stamp = Stamp.fresh () in
    Context.register st.ctx stamp
      {
        tyc_name = name;
        tyc_arity = List.length tyvars;
        tyc_defn = Abstract;
      };
    (bind_tycon name stamp empty_env, stamp :: flex)
  | A.SPtype (tyvars, name, Some ty) ->
    let scope = rigid_scope tyvars in
    let body = elab_ty st env' scope ty in
    let stamp = Stamp.fresh () in
    Context.register st.ctx stamp
      {
        tyc_name = name;
        tyc_arity = List.length tyvars;
        tyc_defn = Alias { arity = List.length tyvars; body };
      };
    (bind_tycon name stamp empty_env, flex)
  | A.SPdatatype datbinds ->
    let ddelta = elab_datbinds st env' loc datbinds in
    let new_flex =
      Symbol.Map.fold (fun _ stamp acc -> stamp :: acc) ddelta.tycons []
    in
    (* spec components carry no runtime address *)
    let ddelta =
      { ddelta with
        vals = Symbol.Map.map (fun vi -> { vi with vi_addr = AdNone }) ddelta.vals }
    in
    (ddelta, new_flex @ flex)
  | A.SPexception (name, arg) ->
    let stamp = Stamp.fresh () in
    let arg_ty =
      Option.map
        (fun ty ->
          elab_ty st env'
            (fun tv l ->
              err l "type variable '%a in exception spec" Symbol.pp tv)
            ty)
        arg
    in
    let body =
      match arg_ty with
      | None -> Basis.exn_ty
      | Some t -> Tarrow (t, Basis.exn_ty)
    in
    ( bind_val name
        { vi_scheme = monotype body; vi_kind = Vexn stamp; vi_addr = AdNone }
        empty_env,
      stamp :: flex )
  | A.SPstructure (name, sigexp) ->
    let inner = elab_sigexp st env' sigexp in
    (* fresh instance so that named signatures can be reused *)
    let instance, fresh = Sigmatch.instantiate st.ctx inner in
    let str_stamp = Stamp.fresh () in
    ( bind_str name
        { str_stamp; str_env = instance; str_addr = AdNone }
        empty_env,
      (str_stamp :: fresh) @ flex )
  | A.SPinclude sigexp ->
    let inner = elab_sigexp st env' sigexp in
    let instance, fresh = Sigmatch.instantiate st.ctx inner in
    (instance, fresh @ flex)

(* ------------------------------------------------------------------ *)
(* Functor declarations                                                *)
(* ------------------------------------------------------------------ *)

and elab_funbinding st env (fb : A.funbinding) =
  let param_sig = elab_sigexp st env fb.A.fct_param_sig in
  let param_instance, param_stamps = Sigmatch.instantiate st.ctx param_sig in
  let fct_stamp = Stamp.fresh () in
  let param_str_stamp = Stamp.fresh () in
  (* everything created from here on inside the body is generative *)
  let lo = Stamp.local_counter () in
  let param_lvar = Symbol.fresh (Symbol.name fb.A.fct_param) in
  let param_rebased = env_with_root_access (AdLvar param_lvar) param_instance in
  let env_body =
    bind_str fb.A.fct_param
      {
        str_stamp = param_str_stamp;
        str_env = param_rebased;
        str_addr = AdLvar param_lvar;
      }
      env
  in
  let body_env, tbody =
    elab_ascribed_str st env_body fb.A.fct_body fb.A.fct_ascription
  in
  let hi = Stamp.local_counter () in
  let body_gen = Realize.reachable_local_stamps st.ctx body_env ~lo ~hi in
  let fct_lvar = Symbol.fresh (Symbol.name fb.A.fct_name) in
  let info =
    {
      fct_stamp;
      fct_param_name = fb.A.fct_param;
      fct_param_sig = param_sig;
      fct_param_stamps = param_stamps;
      fct_body = body_env;
      fct_body_gen = body_gen;
      fct_addr = AdLvar fct_lvar;
    }
  in
  (info, Tast.TDfct (fct_lvar, param_lvar, tbody))

(* ------------------------------------------------------------------ *)
(* Declaration sequences and units                                     *)
(* ------------------------------------------------------------------ *)

(* Each declaration is elaborated in [scope], the outer env extended by
   the declarations before it.  Right-biased union is associative, so
   threading [scope] gives the same env as [env_union env delta] while
   merging only each declaration's own bindings, not the growing delta. *)
and elab_decs_ st env decs =
  let _, delta, rev_tdecs =
    List.fold_left
      (fun (scope, delta, rev_tdecs) dec ->
        let saved_level = st.level in
        match elab_dec_ st scope dec with
        | d, t ->
          (env_union scope d, env_union delta d, List.rev_append t rev_tdecs)
        | exception Diag.Error d when st.diags <> None ->
          (* declaration-level recovery: report, drop the broken
             declaration's bindings, and continue with the next one *)
          st.level <- saved_level;
          (match st.diags with
          | Some c -> Diag.emit c d
          | None -> assert false);
          (scope, delta, rev_tdecs))
      (env, empty_env, []) decs
  in
  (delta, List.rev rev_tdecs)

let elab_exp ?(warn = fun _ _ -> ()) ctx env exp =
  let st = { ctx; level = 0; warn; diags = None } in
  elab_exp_ st env (val_scope st) exp

let elab_decs ?(warn = fun _ _ -> ()) ?diags ctx env decs =
  let st = { ctx; level = 0; warn; diags } in
  elab_decs_ st env decs

let rec check_unit_dec (dec : A.dec) =
  match dec.A.dec_desc with
  | A.Dstructure _ | A.Dsignature _ | A.Dfunctor _ -> ()
  | A.Dlocal (_, visible) -> List.iter check_unit_dec visible
  | A.Dopen _ -> ()
  | A.Dval _ | A.Dvalrec _ | A.Dfun _ | A.Dtype _ | A.Ddatatype _
  | A.Dexception _ ->
    Diag.error Diag.Elaborate dec.A.dec_loc
      "separately compiled units may only contain structure, signature and \
       functor declarations (compile core declarations inside a structure)"

let elab_compilation_unit ?warn ?diags ctx env (unit_ : A.unit_) =
  match diags with
  | None ->
    List.iter check_unit_dec unit_.A.unit_decs;
    elab_decs ?warn ctx env unit_.A.unit_decs
  | Some c ->
    (* report every unit-discipline violation, then elaborate the
       well-formed declarations that remain *)
    let ok_decs =
      List.filter
        (fun dec ->
          match check_unit_dec dec with
          | () -> true
          | exception Diag.Error d ->
            Diag.emit c d;
            false)
        unit_.A.unit_decs
    in
    elab_decs ?warn ~diags:c ctx env ok_decs
