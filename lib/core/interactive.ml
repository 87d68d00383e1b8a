module Symbol = Support.Symbol
module Types = Statics.Types
module Value = Dynamics.Value

type t = {
  ctx : Statics.Context.t;
  mutable senv : Types.env;
  mutable values : Value.t Symbol.Map.t;
  mutable imports : Value.t Digestkit.Pid.Map.t;
  output : string -> unit;
}

type outcome = { bindings : string list; warnings : string list }

let create ?(output = print_string) () =
  let ctx = Statics.Context.create () in
  Statics.Basis.register ctx;
  {
    ctx;
    senv = Statics.Basis.env;
    values = Symbol.Map.empty;
    imports = Digestkit.Pid.Map.empty;
    output;
  }

let context t = t.ctx
let env t = t.senv

(* lvars bound by a declaration's runtime part *)
let runtime_binders (delta : Types.env) =
  let acc = ref [] in
  let add = function Types.AdLvar v -> acc := v :: !acc | _ -> () in
  Symbol.Map.iter (fun _ info -> add info.Types.vi_addr) delta.Types.vals;
  Symbol.Map.iter (fun _ info -> add info.Types.str_addr) delta.Types.strs;
  Symbol.Map.iter (fun _ info -> add info.Types.fct_addr) delta.Types.fcts;
  List.sort_uniq Symbol.compare !acc

let parse_input input =
  match
    Support.Diag.guard (fun () -> Lang.Parser.parse_decs ~file:"<repl>" input)
  with
  | Ok decs when decs <> [] -> decs
  | Ok _ | Error _ ->
    (* treat as an expression bound to [it] *)
    let exp = Lang.Parser.parse_exp ~file:"<repl>" input in
    [
      {
        Lang.Ast.dec_desc =
          Lang.Ast.Dval
            ( { Lang.Ast.pat_desc = Lang.Ast.Pvar (Symbol.intern "it");
                pat_loc = exp.Lang.Ast.exp_loc },
              exp );
        dec_loc = exp.Lang.Ast.exp_loc;
      };
    ]

let describe_bindings t delta =
  let lines = ref [] in
  let value_of addr =
    match addr with
    | Types.AdLvar v -> Symbol.Map.find_opt v t.values
    | _ -> None
  in
  Symbol.Map.iter
    (fun name (info : Types.val_info) ->
      match info.vi_kind with
      | Types.Vcon _ -> ()
      | Types.Vexn _ ->
        lines := Printf.sprintf "exception %s" (Symbol.name name) :: !lines
      | Types.Vplain ->
        let ty = Statics.Tyformat.scheme_to_string t.ctx info.vi_scheme in
        let shown =
          match value_of info.vi_addr with
          | Some v -> Printval.print t.ctx info.vi_scheme.Types.body v
          | None -> "-"
        in
        lines :=
          Printf.sprintf "val %s = %s : %s" (Symbol.name name) shown ty
          :: !lines)
    delta.Types.vals;
  Symbol.Map.iter
    (fun name _ ->
      lines := Printf.sprintf "structure %s" (Symbol.name name) :: !lines)
    delta.Types.strs;
  Symbol.Map.iter
    (fun name _ ->
      lines := Printf.sprintf "signature %s" (Symbol.name name) :: !lines)
    delta.Types.sigs;
  Symbol.Map.iter
    (fun name _ ->
      lines := Printf.sprintf "functor %s" (Symbol.name name) :: !lines)
    delta.Types.fcts;
  Symbol.Map.iter
    (fun name _ ->
      lines := Printf.sprintf "type %s" (Symbol.name name) :: !lines)
    delta.Types.tycons;
  List.rev !lines

let eval t input =
  Obs.Trace.span ~cat:"repl" "repl.eval" @@ fun () ->
  let phase p f = Obs.Trace.span ~cat:"repl" p f in
  let decs = phase "parse" (fun () -> parse_input input) in
  let warnings = ref [] in
  let warn loc msg =
    warnings :=
      Format.asprintf "%a: warning: %s" Support.Loc.pp loc msg :: !warnings
  in
  let delta, tdecs =
    phase "elaborate" (fun () ->
        Statics.Elaborate.elab_decs ~warn t.ctx t.senv decs)
  in
  let binders = runtime_binders delta in
  let record =
    phase "translate" (fun () ->
        Translate.tdecs tdecs
          (Lambda.Lrecord (List.map (fun v -> (v, Lambda.Lvar v)) binders)))
  in
  let rt = Dynamics.Eval.runtime ~output:t.output ~imports:t.imports () in
  (match phase "execute" (fun () -> Dynamics.Eval.eval rt t.values record) with
  | Value.Vrecord fields ->
    Symbol.Map.iter
      (fun v value -> t.values <- Symbol.Map.add v value t.values)
      fields
  | _ -> assert false);
  t.senv <- Types.env_union t.senv delta;
  { bindings = describe_bindings t delta; warnings = List.rev !warnings }

let use t (uf : Pickle.Binfile.t) dynenv =
  t.senv <- Types.env_union t.senv uf.Pickle.Binfile.uf_env;
  t.imports <-
    Digestkit.Pid.Map.union (fun _ _ v -> Some v) t.imports dynenv
