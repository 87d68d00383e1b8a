(* Per-layer replay of a build.  The build manager runs the compile
   pipeline as one call, so the traced run replays the build's real
   units, in build order, through the same public per-phase functions
   that [Sepcomp.Compile.compile] calls, each call inside its own span.
   A job starts from the same closure bins the manager hands it, in a
   fresh session, as [Irm.Wire.execute] does; the bytes it writes must
   equal the bin the manager wrote, which checks that the replay did the
   manager's work and nothing else. *)

module Driver = Irm.Driver
module Binfile = Pickle.Binfile

type t = {
  sp : Spans.t;
  mutable mgr : Sepcomp.Compile.session;
      (** mirrors the build manager's session: completed units are
          rehydrated into it, as [Driver.build] does *)
  retained : (string, string) Hashtbl.t;
      (** mirrors the manager's retained bins: bytes already rehydrated
          are not read again *)
  mutable reads : int;  (** bins rehydrated by the replay *)
  mutable mismatches : int;  (** replayed jobs whose bytes differ *)
  mutable lines : int;  (** source lines of the replayed compiles *)
  mutable ir_before : int;  (** IR nodes before simplify *)
  mutable ir_after : int;  (** IR nodes after simplify *)
}

let create sp =
  {
    sp;
    mgr = Sepcomp.Compile.new_session ();
    retained = Hashtbl.create 64;
    reads = 0;
    mismatches = 0;
    lines = 0;
    ir_before = 0;
    ir_after = 0;
  }

let span r name f = Spans.with_span r.sp name f

let read r session bytes =
  r.reads <- r.reads + 1;
  span r "pickle.read" (fun () ->
      Binfile.read (Sepcomp.Compile.context session) bytes)

(* the manager's rehydration: skipped when these bytes are retained *)
let rehydrate r file bytes =
  match Hashtbl.find_opt r.retained file with
  | Some prev when String.equal prev bytes -> ()
  | Some _ | None ->
    ignore (read r r.mgr bytes);
    Hashtbl.replace r.retained file bytes

let reset r =
  r.mgr <- Sepcomp.Compile.new_session ();
  Hashtbl.reset r.retained

let count_lines s = List.length (String.split_on_char '\n' s)

(** The build manager's dependency scan: parse every source, then build and
    order the dependency graph. *)
let scan r sources =
  span r "depend.scan" @@ fun () ->
  let parsed =
    List.map (fun (file, src) -> (file, Lang.Parser.parse_unit ~file src)) sources
  in
  let graph = Depend.Depgraph.build parsed in
  ignore (Depend.Depgraph.topological graph);
  graph

(* the unit's runtime export record, as [Sepcomp.Compile] builds it *)
let runtime_export_fields (delta : Statics.Types.env) =
  let fields = ref [] in
  Support.Symbol.Map.iter
    (fun name info ->
      fields := (name, Statics.Tast.TEvar info.Statics.Types.str_addr) :: !fields)
    delta.Statics.Types.strs;
  Support.Symbol.Map.iter
    (fun name info ->
      fields := (name, Statics.Tast.TEvar info.Statics.Types.fct_addr) :: !fields)
    delta.Statics.Types.fcts;
  List.sort
    (fun (a, _) (b, _) ->
      String.compare (Support.Symbol.name a) (Support.Symbol.name b))
    !fields

(** One compile job: rehydrate the closure, run every phase, pickle. *)
let compile_job r ~name ~source ~closure ~imports =
  let session = Sepcomp.Compile.new_session () in
  let ctx = Sepcomp.Compile.context session in
  let loaded = Hashtbl.create 16 in
  List.iter
    (fun (dep, bytes) -> Hashtbl.replace loaded dep (read r session bytes))
    closure;
  let imports = List.map (Hashtbl.find loaded) imports in
  let unit_ =
    Support.Symbol.with_fresh_scope @@ fun () ->
    let env = Sepcomp.Compile.env_of_units session imports in
    let ast = span r "lang.parse" (fun () -> Lang.Parser.parse_unit ~file:name source) in
    let delta, tdecs =
      span r "statics.elaborate" (fun () ->
          Statics.Elaborate.elab_compilation_unit ctx env ast)
    in
    let fields = runtime_export_fields delta in
    let export = span r "pickle.hash" (fun () -> Pickle.Hashenv.export ctx delta) in
    let summary = span r "depend.scan" (fun () -> Depend.Scan.scan ast) in
    let code = span r "lambda.translate" (fun () -> Translate.unit_code tdecs fields) in
    r.ir_before <- r.ir_before + Lambda.size code;
    let code = span r "lambda.simplify" (fun () -> Simplify.term code) in
    r.ir_after <- r.ir_after + Lambda.size code;
    {
      Binfile.uf_name = name;
      uf_static_pid = export.Pickle.Hashenv.ex_static_pid;
      uf_env = export.ex_env;
      uf_import_statics =
        List.map (fun (u : Binfile.t) -> (u.uf_name, u.uf_static_pid)) imports;
      uf_name_statics = export.ex_name_statics;
      uf_import_name_statics =
        List.concat_map
          (fun (u : Binfile.t) ->
            List.filter
              (fun (m, _) -> Support.Symbol.Set.mem m summary.Depend.Scan.refers)
              u.uf_name_statics)
          imports;
      uf_codeunit = Link.Codeunit.make ~exports:export.ex_exports code;
    }
  in
  r.lines <- r.lines + count_lines source;
  span r "pickle.write" (fun () -> Binfile.write ctx unit_)

(** The state of the build manager when the replayed build started. *)
type manager =
  | Cold  (** a fresh manager, no bins on disk *)
  | Fresh  (** a fresh manager over up-to-date bins *)
  | Warm  (** the manager of the previous build *)

(** Replay one build.  [sources] are (file, content) as the build read
    them; [bin] gives a unit's bin bytes after the build.  Every unit
    not recompiled kept its bin, so its bytes were on disk before the
    build too. *)
let build r ~manager ~sources ~(stats : Driver.stats) ~bin =
  if manager <> Warm then reset r;
  let graph = scan r sources in
  let recompiled = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace recompiled f ()) stats.Driver.st_recompiled;
  List.iter
    (fun file ->
      if not (Hashtbl.mem recompiled file) then begin
        if manager <> Cold then rehydrate r file (bin file)
      end
      else begin
        let bytes =
          compile_job r ~name:file ~source:(List.assoc file sources)
            ~closure:
              (List.map (fun d -> (d, bin d)) (Depend.Depgraph.closure graph file))
            ~imports:(Depend.Depgraph.node graph file).Depend.Depgraph.n_deps
        in
        if not (String.equal bytes (bin file)) then r.mismatches <- r.mismatches + 1;
        rehydrate r file (bin file)
      end)
    stats.Driver.st_order

(** Replay linking: verify and execute every unit in build order. *)
let link r ~units ~output =
  ignore
    (List.fold_left
       (fun env (name, (u : Binfile.t)) ->
         let cu = u.uf_codeunit in
         span r "link.verify" (fun () -> Link.Linker.check ~unit_name:name cu env);
         span r "link.execute" (fun () ->
             Link.Linker.execute ~output ~unit_name:name cu env))
       Link.Linker.empty units)

(** Load every unit into the replay's manager session, untimed: the
    state of a warm build manager. *)
let prime r ~order ~bin =
  reset r;
  List.iter
    (fun f ->
      ignore (Binfile.read (Sepcomp.Compile.context r.mgr) (bin f));
      Hashtbl.replace r.retained f (bin f))
    order
