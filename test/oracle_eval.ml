(* The tree-walking interpreter, kept as a differential oracle for the
   executor ({!Dynamics.Eval}).  It looks every variable up in a
   symbol map and closes each function over the whole map: slow, but
   close enough to the dynamic semantics to read as a specification.
   Primitives and exception identities are the library's own.  A
   closure runs under the runtime it was made under, so the oracle only
   models programs run under one runtime. *)

module Symbol = Support.Symbol
module Pid = Digestkit.Pid
module Diag = Support.Diag
module Eval = Dynamics.Eval
open Dynamics.Value

let exec_error fmt = Diag.error Diag.Execute Support.Loc.dummy fmt

let rec eval (rt : Eval.runtime) env (term : Lambda.t) =
  match term with
  | Lambda.Lvar v -> (
    match Symbol.Map.find_opt v env with
    | Some value -> value
    | None -> exec_error "unbound runtime variable %a" Symbol.pp v)
  | Lambda.Lint n -> Vint n
  | Lambda.Lstring s -> Vstring s
  | Lambda.Limport pid -> (
    match Pid.Map.find_opt pid rt.Eval.imports with
    | Some value -> value
    | None ->
      Diag.error Diag.Link Support.Loc.dummy "unsatisfied import %s"
        (Pid.to_hex pid))
  | Lambda.Lprim p -> Vprim p
  | Lambda.Lbasisexn name -> Vexnid (Eval.basis_exnid name)
  | Lambda.Lfn (param, body) ->
    Vclosure { cl_fn = (fun a -> eval rt (Symbol.Map.add param a env) body) }
  | Lambda.Lapp (f, arg) ->
    let fv = eval rt env f in
    let argv = eval rt env arg in
    apply rt fv argv
  | Lambda.Llet (v, e, body) ->
    let value = eval rt env e in
    eval rt (Symbol.Map.add v value env) body
  | Lambda.Lfix (binds, body) ->
    let closures =
      List.map (fun _ -> { cl_fn = (fun _ -> assert false) }) binds
    in
    let env' =
      List.fold_left2
        (fun env (f, _, _) cl -> Symbol.Map.add f (Vclosure cl) env)
        env binds closures
    in
    List.iter2
      (fun (_, param, fbody) cl ->
        cl.cl_fn <- (fun a -> eval rt (Symbol.Map.add param a env') fbody))
      binds closures;
    eval rt env' body
  | Lambda.Ltuple parts -> Vtuple (Array.of_list (List.map (eval rt env) parts))
  | Lambda.Lselect (i, e) -> (
    match eval rt env e with
    | Vtuple parts when i < Array.length parts -> parts.(i)
    | v -> exec_error "bad tuple projection #%d of %s" i (to_string v))
  | Lambda.Lrecord fields ->
    Vrecord
      (List.fold_left
         (fun acc (name, e) -> Symbol.Map.add name (eval rt env e) acc)
         Symbol.Map.empty fields)
  | Lambda.Lfield (name, e) -> (
    match eval rt env e with
    | Vrecord fields -> (
      match Symbol.Map.find_opt name fields with
      | Some v -> v
      | None -> exec_error "structure has no component %a" Symbol.pp name)
    | v -> exec_error "field access on non-structure %s" (to_string v))
  | Lambda.Lcon0 tag -> Vcon0 tag
  | Lambda.Lcon (tag, e) -> Vcon (tag, eval rt env e)
  | Lambda.Lcontag e -> (
    match eval rt env e with
    | Vcon0 tag | Vcon (tag, _) -> Vint tag
    | v -> exec_error "tag of non-constructor %s" (to_string v))
  | Lambda.Lconarg e -> (
    match eval rt env e with
    | Vcon (_, arg) -> arg
    | v -> exec_error "argument of non-unary-constructor %s" (to_string v))
  | Lambda.Lnewexn (name, has_arg) -> Vexnid (Eval.fresh_exnid name has_arg)
  | Lambda.Lmkexn0 e -> (
    match eval rt env e with
    | Vexnid id -> Vexn (id, None)
    | v -> exec_error "mkexn0 of non-exception %s" (to_string v))
  | Lambda.Lexnid e -> (
    match eval rt env e with
    | Vexnid id | Vexn (id, _) -> Vint id.uid
    | v -> exec_error "exnid of non-exception %s" (to_string v))
  | Lambda.Lexnarg e -> (
    match eval rt env e with
    | Vexn (_, Some arg) -> arg
    | Vexn (_, None) -> exec_error "exception packet carries no argument"
    | v -> exec_error "exnarg of non-packet %s" (to_string v))
  | Lambda.Lif (c, t, e) -> (
    match eval rt env c with
    | Vcon0 1 -> eval rt env t
    | Vcon0 0 -> eval rt env e
    | v -> exec_error "if on non-bool %s" (to_string v))
  | Lambda.Lraise e -> (
    match eval rt env e with
    | Vexn _ as packet -> raise (Eval.Sml_raise packet)
    | v -> exec_error "raise of non-packet %s" (to_string v))
  | Lambda.Lhandle (body, v, handler) -> (
    match eval rt env body with
    | value -> value
    | exception Eval.Sml_raise packet ->
      eval rt (Symbol.Map.add v packet env) handler)

and apply rt fv argv =
  match fv with
  | Vclosure cl -> cl.cl_fn argv
  | Vprim p -> Eval.apply_prim rt p argv
  | Vexnid id ->
    if id.has_arg then Vexn (id, Some argv)
    else exec_error "application of a nullary exception constructor"
  | v -> exec_error "application of non-function %s" (to_string v)

let run rt term = eval rt Symbol.Map.empty term
