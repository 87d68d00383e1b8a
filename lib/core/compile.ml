module Symbol = Support.Symbol
module Types = Statics.Types

type session = { ctx : Statics.Context.t; basis : Types.env }

let new_session () =
  let ctx = Statics.Context.create () in
  Statics.Basis.register ctx;
  { ctx; basis = Statics.Basis.env }

let context session = session.ctx
let basis_env session = session.basis

let env_of_units session units =
  List.fold_left
    (fun env (uf : Pickle.Binfile.t) -> Types.env_union env uf.uf_env)
    session.basis units
  |> fun env ->
  ignore session;
  env

(* The unit's runtime export record: one field per top-level structure
   and functor, referencing the lvar the declaration bound. *)
let runtime_export_fields (delta : Types.env) =
  let fields = ref [] in
  Symbol.Map.iter
    (fun name info -> fields := (name, Statics.Tast.TEvar info.Types.str_addr) :: !fields)
    delta.Types.strs;
  Symbol.Map.iter
    (fun name info -> fields := (name, Statics.Tast.TEvar info.Types.fct_addr) :: !fields)
    delta.Types.fcts;
  List.sort
    (fun (a, _) (b, _) -> String.compare (Symbol.name a) (Symbol.name b))
    !fields

let m_units = Obs.Metrics.counter "compile.units"
let m_failed_units = Obs.Metrics.counter "compile.failed_units"
let m_diag_errors = Obs.Metrics.counter "diag.errors"
let m_diag_warnings = Obs.Metrics.counter "diag.warnings"

let compile ?(optimize = true) ?warn ?diags session ~name ~source ~imports =
  Obs.Trace.span ~cat:"compile" ~args:[ ("unit", name) ] "compile.unit"
  @@ fun () ->
  (* generated binder names restart from zero for every unit, making
     the emitted bin bytes a function of (source, imports) alone —
     independent of session history, build order, or which domain runs
     the compile.  Binders never escape a unit's own lambda term, so
     cross-unit reuse of a name is harmless. *)
  Support.Symbol.with_fresh_scope @@ fun () ->
  let phase p f = Obs.Trace.span ~cat:"compile" ~args:[ ("unit", name) ] p f in
  let env = env_of_units session imports in
  (* recovery mode: the front end accumulates into [diags] instead of
     raising on the first error.  A unit with parse errors skips
     elaboration (a partially recovered AST would only produce
     confusing secondary type errors); a unit with elaboration errors
     stops before translation, so the error type never reaches a
     pickled interface.  Either way the whole batch is raised as
     {!Support.Diag.Errors}. *)
  let unit_failed c =
    Obs.Metrics.incr m_failed_units;
    Obs.Metrics.add m_diag_errors (Support.Diag.error_count c);
    Obs.Metrics.add m_diag_warnings (Support.Diag.warning_count c);
    raise (Support.Diag.Errors (Support.Diag.diags c))
  in
  let check_front_end () =
    match diags with
    | Some c when Support.Diag.has_errors c -> unit_failed c
    | _ -> ()
  in
  let unit_ =
    try phase "parse" (fun () -> Lang.Parser.parse_unit ?diags ~file:name source)
    with Support.Diag.Errors _ as e -> (
      (* the collector hit its error limit mid-phase *)
      match diags with Some c -> unit_failed c | None -> raise e)
  in
  check_front_end ();
  let delta, tdecs =
    try
      phase "elaborate" (fun () ->
          Statics.Elaborate.elab_compilation_unit ?warn ?diags session.ctx env
            unit_)
    with Support.Diag.Errors _ as e -> (
      match diags with Some c -> unit_failed c | None -> raise e)
  in
  check_front_end ();
  (match diags with
  | Some c -> Obs.Metrics.add m_diag_warnings (Support.Diag.warning_count c)
  | None -> ());
  let fields = runtime_export_fields delta in
  let export = phase "hash" (fun () -> Pickle.Hashenv.export session.ctx delta) in
  (* the selective-recompilation record: of the module names this unit
     referenced, which import provided each and at what interface pid *)
  let summary = phase "scan" (fun () -> Depend.Scan.scan unit_) in
  let uf_import_name_statics =
    List.concat_map
      (fun (uf : Pickle.Binfile.t) ->
        List.filter
          (fun (modname, _) ->
            Symbol.Set.mem modname summary.Depend.Scan.refers)
          uf.uf_name_statics)
      imports
  in
  let code = phase "translate" (fun () -> Translate.unit_code tdecs fields) in
  let code =
    if optimize then phase "simplify" (fun () -> Simplify.term code) else code
  in
  Obs.Metrics.incr m_units;
  {
    Pickle.Binfile.uf_name = name;
    uf_static_pid = export.ex_static_pid;
    uf_env = export.ex_env;
    uf_import_statics =
      List.map
        (fun (uf : Pickle.Binfile.t) -> (uf.uf_name, uf.uf_static_pid))
        imports;
    uf_name_statics = export.ex_name_statics;
    uf_import_name_statics;
    uf_codeunit = Link.Codeunit.make ~exports:export.ex_exports code;
  }

let load session bytes = Pickle.Binfile.read session.ctx bytes
let rehydrate session decoded = Pickle.Binfile.rehydrate session.ctx decoded
let save session unit_ = Pickle.Binfile.write session.ctx unit_

let execute ?output ?bin_path unit_ dynenv =
  Link.Linker.execute ?output ~unit_name:unit_.Pickle.Binfile.uf_name ?bin_path
    unit_.Pickle.Binfile.uf_codeunit dynenv
