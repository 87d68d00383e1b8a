module Diag = Support.Diag
module Pid = Digestkit.Pid

type policy = Timestamp | Cutoff | Selective

let policy_name = function
  | Timestamp -> "timestamp"
  | Cutoff -> "cutoff"
  | Selective -> "selective"

type backend = Sched.backend =
  | Serial
  | Parallel of int
  | Pool of Remote.Pool.config

(* how the scheduler orders ready work.  [Wavefront] is the plain FIFO
   wavefront; [Critical_path] ranks ready units by the length of the
   longest downstream chain (estimated from the profile store's EWMA
   compile times).  Outcomes are byte-identical either way — the
   schedule steers only when work starts. *)
type schedule = Wavefront | Critical_path

let schedule_name = function
  | Wavefront -> "wavefront"
  | Critical_path -> "critical-path"

(* why a unit was recompiled.  Derived from the exact comparisons the
   policies make for the staleness decision itself — the cause is the
   decision, not a parallel reconstruction that could drift. *)
type cause =
  | First_build
  | Evicted
  | Corrupt_entry
  | Source_changed
  | Import_pid_changed of string list
  | Forced of string * string list

let cause_name = function
  | First_build -> "first-build"
  | Evicted -> "evicted"
  | Corrupt_entry -> "corrupt-entry"
  | Source_changed -> "source-changed"
  | Import_pid_changed _ -> "import-pid-changed"
  | Forced _ -> "forced"

let cause_culprits = function
  | Import_pid_changed culprits | Forced (_, culprits) -> culprits
  | First_build | Evicted | Corrupt_entry | Source_changed -> []

let cause_detail = function Forced (reason, _) -> Some reason | _ -> None

type stats = {
  st_order : string list;
  st_recompiled : string list;
  st_loaded : string list;
  st_cache_hits : string list;
  st_cutoff_hits : string list;
  st_failed : (string * Diag.t list) list;
  st_skipped : (string * string) list;
  st_policy : policy;
  st_backend : backend;
  st_wall_s : float;
  st_unit_times : (string * float) list;
  st_build_id : int;
  st_jobs : int;
  st_slot_busy_s : float list;
  st_causes : (string * cause) list;
  st_schedule : schedule;
}

let m_recompiled = Obs.Metrics.counter "build.recompiled"
let m_loaded = Obs.Metrics.counter "build.loaded"
let m_cutoff_hits = Obs.Metrics.counter "build.cutoff_hits"
let m_cache_hits = Obs.Metrics.counter "build.cache_hits"
let m_failed = Obs.Metrics.counter "build.failed"
let m_skipped = Obs.Metrics.counter "build.skipped"
let m_parses = Obs.Metrics.counter "depend.parses"

exception Interrupted of string

(* the warm state of one unit, surviving across builds *)
type retained = {
  rt_bytes : string;  (** the bin bytes last rehydrated for the unit *)
  rt_unit : Pickle.Binfile.t;
      (** the unit's statics, rehydrated from them; its codeUnit is
          {!Pickle.Binfile.no_code} *)
  rt_code : Link.Codeunit.t Lazy.t;
      (** the codeUnit of [rt_bytes], decoded the first time {!run}
          links the unit, and forced on the calling domain only *)
  rt_view : Wire.view Lazy.t;
      (** [Binfile.static_of_full rt_bytes] and the decode [rt_unit] was
          rehydrated from, made the first time a compile job ships the
          unit as a dependency *)
  rt_fingerprint : string Lazy.t;
      (** the MD5 of [rt_bytes], digested the first time a
          {!link_snapshot} names the unit *)
  mutable rt_build : int;
      (** the [generation] of the last build that registered these
          bytes as the unit's result *)
}

(* a dependency graph and the (file, summary) list it was built from:
   the graph is a function of that list alone *)
type graph_memo = {
  gm_units : (string * Depend.Scan.summary) list;
  gm_graph : Depend.Depgraph.t;
}

type t = {
  fs : Vfs.fs;
  session : Sepcomp.Compile.session;
  mutable generation : int;  (** bumped at the start of every build *)
  retained : (string, retained) Hashtbl.t;
      (** warm state surviving across builds: file → its bin bytes, the
          unit rehydrated from them and their static view.  When a later
          build reads the same bytes back it reuses the rehydrated unit
          instead of unpickling again — the daemon's warm-rebuild win —
          and dependents' compile jobs reuse the view.  Never trusted
          blindly: entries are keyed by exact byte equality with what is
          on disk.  Entries of files no longer listed are dropped.  The
          last build's results are the entries it registered: those
          whose [rt_build] is the current [generation]. *)
  scans : (string, string * Depend.Scan.summary) Hashtbl.t;
      (** the warm dependency scan: file → (source text last scanned,
          its scan summary).  A source whose text is byte-equal to the
          stored one is not parsed again.  Only clean parses are
          stored, so a broken source is re-parsed (and re-reports its
          errors) every time. *)
  mutable graph : graph_memo option;
      (** the last build's dependency graph, reused while every unit's
          scan summary stays equal *)
  mutable last_order : string list;  (** build order of the last build *)
}

let create fs =
  {
    fs;
    session = Sepcomp.Compile.new_session ();
    generation = 0;
    retained = Hashtbl.create 32;
    scans = Hashtbl.create 32;
    graph = None;
    last_order = [];
  }

let session t = t.session
let last_order t = t.last_order

let manager_error fmt = Diag.error Diag.Manager Support.Loc.dummy fmt
let bin_path file = file ^ ".bin"

let read_source t file =
  match t.fs.Vfs.fs_read file with
  | Some content -> content
  | None -> manager_error "source file %s not found" file

(* Parse [source] and scan it, remembering the summary when the parse is
   clean.  With [keep_going] a broken source gets a throwaway recovery
   parse instead of raising: the dependency scan must survive it, and
   its diagnostics then surface as a failed compile job (compiles are
   pure, so the job re-derives exactly the same diagnostics) instead of
   aborting the whole build before anything was scheduled. *)
let parse_summary t ~keep_going file source =
  Obs.Metrics.incr m_parses;
  let remember summary =
    Hashtbl.replace t.scans file (source, summary);
    summary
  in
  if keep_going then
    let diags = Diag.collector ~unit_name:file () in
    match Lang.Parser.parse_unit ~diags ~file source with
    | unit_ when not (Diag.has_errors diags) -> remember (Depend.Scan.scan unit_)
    | unit_ -> Depend.Scan.scan unit_
    | exception Diag.Errors _ ->
      Depend.Scan.scan { Lang.Ast.unit_file = file; unit_decs = [] }
  else remember (Depend.Scan.scan (Lang.Parser.parse_unit ~file source))

let same_summary (file, (s : Depend.Scan.summary)) (file', s') =
  String.equal file file'
  && (s == s'
     || Support.Symbol.Set.equal s.defines s'.Depend.Scan.defines
        && Support.Symbol.Set.equal s.refers s'.Depend.Scan.refers)

(* Read every source once and scan it, parsing only the sources whose
   text changed since the manager last scanned them.  With [prune] (a
   build's scan) memo and retained entries of files no longer listed
   are dropped.  Returns each (file, text) — the bytes a build then
   compiles — each (file, summary), and the dependency graph: the
   memoized one when the summaries equal its own. *)
let scan_sources t ~keep_going ~prune sources =
  let scanned =
    Obs.Trace.span_with ~cat:"build" "build.scan_sources" @@ fun () ->
    let hits = ref 0 in
    let scanned =
      List.map
        (fun file ->
          let source = read_source t file in
          match Hashtbl.find_opt t.scans file with
          | Some (prev, summary) when String.equal prev source ->
            incr hits;
            (file, source, summary)
          | Some _ | None ->
            (file, source, parse_summary t ~keep_going file source))
        sources
    in
    if prune then begin
      let listed = Hashtbl.create (List.length sources) in
      List.iter (fun file -> Hashtbl.replace listed file ()) sources;
      let drop_unlisted tbl =
        Hashtbl.filter_map_inplace
          (fun file entry -> if Hashtbl.mem listed file then Some entry else None)
          tbl
      in
      drop_unlisted t.scans;
      drop_unlisted t.retained
    end;
    ( scanned,
      [
        ("hits", string_of_int !hits);
        ("misses", string_of_int (List.length sources - !hits));
      ] )
  in
  let units = List.map (fun (file, _, summary) -> (file, summary)) scanned in
  let graph =
    match t.graph with
    | Some m when List.equal same_summary m.gm_units units -> m.gm_graph
    | Some _ | None -> Depend.Depgraph.of_summaries units
  in
  (List.map (fun (file, source, _) -> (file, source)) scanned, units, graph)

let dependency_graph ?(keep_going = false) t ~sources =
  let _, _, graph = scan_sources t ~keep_going ~prune:false sources in
  graph

(* Rehydrate bin bytes into the manager's session, short-circuiting through
   the retained table: if this exact byte string was already loaded for
   this file in an earlier build (the session is created once per
   driver, so its interned state is still valid), reuse the entry.  Only
   the statics are decoded: a build reads nothing else, and the code
   stays pickled in [rt_bytes] until [run] links the unit.  The decode
   is kept for the unit's static view, so no dependent's job parses
   these bytes again.
   Raises [Pickle.Buf.Corrupt] on a damaged file or static blob. *)
let rehydrate t file bytes =
  match Hashtbl.find_opt t.retained file with
  | Some r when String.equal r.rt_bytes bytes -> r
  | Some _ | None ->
    let decoded = Pickle.Binfile.decode_static bytes in
    let r =
      {
        rt_bytes = bytes;
        rt_unit = Sepcomp.Compile.rehydrate t.session decoded;
        rt_code = lazy (Pickle.Binfile.decode_code bytes);
        rt_view =
          lazy
            {
              Wire.v_bytes = Pickle.Binfile.static_of_full bytes;
              v_decoded = decoded;
            };
        rt_fingerprint = lazy (Digestkit.Md5.digest_string bytes);
        rt_build = -1;
      }
    in
    Hashtbl.replace t.retained file r;
    r

(* A build's results are the entries it registered.  Every byte string
   it registers was rehydrated first, so a result's static view and
   fingerprint are sliced, decoded and digested once per distinct bin.
   The tables are touched on the calling domain only: jobs on other
   domains receive forced views and only read them. *)
let register t r = r.rt_build <- t.generation

let registered t file =
  match Hashtbl.find_opt t.retained file with
  | Some r when r.rt_build = t.generation -> Some r
  | Some _ | None -> None

let registered_unit t file =
  Option.map (fun r -> r.rt_unit) (registered t file)

(* Try to read the unit's previous bin file; damaged files force a
   recompilation (with a distinct cause) rather than failing the
   build. *)
let read_bin t file =
  match t.fs.Vfs.fs_read (bin_path file) with
  | None -> `Absent
  | Some bytes -> (
    match rehydrate t file bytes with
    | r -> `Ok r
    | exception Pickle.Buf.Corrupt _ -> `Corrupt)

(* ------------------------------------------------------------------ *)
(* Scheduler plumbing                                                  *)
(* ------------------------------------------------------------------ *)

(* the compile job, its result, and the pure [execute] every backend
   runs live in {!Wire}, next to their wire codecs; the aliases keep
   this file's construction sites unchanged *)
type job = Wire.job = {
  j_name : string;
  j_source : string;
  j_closure : (string * Wire.view) list;
      (** (file, static view of its bin), dep order *)
  j_imports : string list;  (** direct dependencies, scope order *)
  j_collect : bool;  (** compile under a diagnostics collector *)
  j_werror : bool;  (** promote warnings to errors *)
  j_limit : int option;  (** collector error limit *)
  j_build : int;  (** build id, for cross-process trace correlation *)
}

type kind = Wire.kind = Recompiled | Loaded | Cache_hit

type result = Wire.result = {
  r_kind : kind;
  r_bytes : string;  (** the unit's (possibly new) bin bytes *)
  r_phases : (string * float) list;  (** per-phase compile seconds *)
}

let execute job = Wire.execute job

(* per-unit bookkeeping recorded by [prepare] for [complete] *)
type prep = {
  p_prev_pid : Pid.t option;
  p_key : string option;  (** cache key, when a cache is attached *)
  p_start : float;
  p_cause : cause option;  (** why the unit is stale; [None] = fresh *)
}

(* builds not recorded to a profile store still get distinct ids for
   trace correlation *)
let ephemeral_build_id = Atomic.make 1

(* transient injected faults (and nothing else) are worth retrying *)
let transient_fault = function
  | Vfs.Fault { fault_transient; _ } -> fault_transient
  | _ -> false

(* the one outcome rule: a unit's outcome is the first partition that
   lists it *)
let partitions ~failed ~skipped ~cutoff ~recompiled ~cache ~loaded =
  [
    ("failed", failed);
    ("skipped", skipped);
    ("cutoff", cutoff);
    ("recompiled", recompiled);
    ("cache", cache);
    ("loaded", loaded);
  ]

let stats_partitions stats =
  partitions
    ~failed:(List.map fst stats.st_failed)
    ~skipped:(List.map fst stats.st_skipped)
    ~cutoff:stats.st_cutoff_hits ~recompiled:stats.st_recompiled
    ~cache:stats.st_cache_hits ~loaded:stats.st_loaded

(* which partition lists each unit, indexed once for paths that ask
   about every unit *)
let outcome_index parts =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (outcome, files) ->
      List.iter
        (fun file ->
          if not (Hashtbl.mem tbl file) then Hashtbl.add tbl file outcome)
        files)
    parts;
  fun file -> Option.value ~default:"unknown" (Hashtbl.find_opt tbl file)

let outcome_of stats = outcome_index (stats_partitions stats)

let build ?(backend = Serial) ?(schedule = Wavefront) ?cache ?profile
    ?(retries = 2) ?(backoff_s = 0.001) ?(keep_going = false)
    ?(werror = false) ?max_errors t ~policy ~sources =
  let build_id =
    match profile with
    | Some p -> Obs.Profile.next_id p
    | None -> Atomic.fetch_and_add ephemeral_build_id 1
  in
  Obs.Trace.span ~cat:"build"
    ~args:
      [
        ("policy", policy_name policy);
        ("backend", Sched.backend_name backend);
        ("schedule", schedule_name schedule);
        ("build", string_of_int build_id);
      ]
    "build"
  @@ fun () ->
  let build_start = Unix.gettimeofday () in
  let texts, units, graph = scan_sources t ~keep_going ~prune:true sources in
  (* a build compiles exactly the bytes its dependency scan read *)
  let source_of =
    let tbl = Hashtbl.create (List.length texts) in
    List.iter (fun (file, source) -> Hashtbl.replace tbl file source) texts;
    Hashtbl.find tbl
  in
  let order = Depend.Depgraph.topological graph in
  (* only a graph that sorted is memoized: a cycle or a module defined
     twice raises again on every build *)
  t.graph <- Some { gm_units = units; gm_graph = graph };
  t.generation <- t.generation + 1;
  let deps_of file = (Depend.Depgraph.node graph file).Depend.Depgraph.n_deps in
  (* units whose bin file was rewritten this build (compiled or filled
     from the cache) — what the Timestamp cascade propagates *)
  let changed = Hashtbl.create 16 in
  let preps : (string, prep) Hashtbl.t = Hashtbl.create 16 in
  let results : (string, result * float) Hashtbl.t = Hashtbl.create 16 in
  (* critical-path priorities: rank every unit by the length of the
     longest chain from it to a sink, with per-unit compile times
     estimated from the profile store's EWMA aggregate (1 s for units
     never compiled — a damaged or absent store degrades to uniform
     estimates, i.e. longest-chain-by-depth, never an error).  The
     reversed topological order makes one pass suffice: every
     dependent's length is already known when a unit is visited. *)
  let priorities : (string, float) Hashtbl.t = Hashtbl.create 16 in
  (match schedule with
  | Wavefront -> ()
  | Critical_path ->
    let est file =
      match Option.bind profile (fun p -> Obs.Profile.aggregate p file) with
      | Some a -> Float.max 1e-6 a.Obs.Profile.ag_ewma_s
      | None -> 1.0
    in
    let dependents = Hashtbl.create 16 in
    List.iter
      (fun file ->
        List.iter
          (fun dep ->
            Hashtbl.replace dependents dep
              (file
              :: Option.value ~default:[] (Hashtbl.find_opt dependents dep)))
          (deps_of file))
      order;
    List.iter
      (fun file ->
        let downstream =
          List.fold_left
            (fun acc d ->
              Float.max acc
                (Option.value ~default:0. (Hashtbl.find_opt priorities d)))
            0.
            (Option.value ~default:[] (Hashtbl.find_opt dependents file))
        in
        Hashtbl.replace priorities file (est file +. downstream))
      (List.rev order));
  let priority_of file =
    Option.value ~default:0. (Hashtbl.find_opt priorities file)
  in
  let unit_of_dep file dep =
    match registered_unit t dep with
    | Some unit_ -> unit_
    | None -> manager_error "dependency %s of %s was not built" dep file
  in
  let cache_key file source =
    Option.map
      (fun _ ->
        Cache.key ~version:Pickle.Binfile.magic ~name:file ~source
          ~import_pids:
            (List.map
               (fun dep -> (unit_of_dep file dep).Pickle.Binfile.uf_static_pid)
               (deps_of file)))
      cache
  in
  (* why a unit with an intact, not-source-newer bin is stale under the
     policy ([None] = up to date).  The [Some]/[None] decision is the
     policy's staleness predicate, verbatim; the payload attributes it. *)
  let stale_cause deps prev =
    let recorded = Hashtbl.create 8 in
    List.iter
      (fun (dep, pid) -> Hashtbl.replace recorded dep pid)
      prev.Pickle.Binfile.uf_import_statics;
    (* a dep with no recorded pid, or not (yet) built, counts as changed *)
    let pid_changed dep =
      match (Hashtbl.find_opt recorded dep, registered_unit t dep) with
      | Some old_pid, Some current ->
        not (Pid.equal old_pid current.Pickle.Binfile.uf_static_pid)
      | _ -> true
    in
    let dep_set_changed =
      List.length prev.Pickle.Binfile.uf_import_statics <> List.length deps
    in
    match policy with
    | Timestamp -> (
      (* classical make: any rewritten dependency cascades.  When the
         rewrite left every interface pid intact the rebuild is pure
         policy imprecision — attributed as a forced cascade, naming
         the rewritten deps *)
      match List.filter (Hashtbl.mem changed) deps with
      | [] -> None
      | cascaded -> (
        match List.filter pid_changed cascaded with
        | [] -> Some (Forced ("timestamp-cascade", cascaded))
        | culprits -> Some (Import_pid_changed culprits)))
    | Cutoff -> (
      (* recompile only if some import's *interface* changed *)
      if dep_set_changed then Some (Forced ("dependency-set-changed", deps))
      else
        match List.filter pid_changed deps with
        | [] -> None
        | culprits -> Some (Import_pid_changed culprits))
    | Selective ->
      (* recompile only if a *referenced module* changed: compare the
         recorded per-name pids against the providers' current per-name
         pids (first provider in dependency order wins, as in scope) *)
      let current = Hashtbl.create 16 in
      let provider = Hashtbl.create 16 in
      List.iter
        (fun dep ->
          match registered_unit t dep with
          | Some unit_ ->
            List.iter
              (fun (modname, pid) ->
                if not (Hashtbl.mem current modname) then begin
                  Hashtbl.add current modname pid;
                  Hashtbl.add provider modname dep
                end)
              unit_.Pickle.Binfile.uf_name_statics
          | None -> ())
        deps;
      (* the dependency *set* changing still forces a recompile *)
      if dep_set_changed then Some (Forced ("dependency-set-changed", deps))
      else (
        match
          List.filter
            (fun (modname, old_pid) ->
              match Hashtbl.find_opt current modname with
              | Some now -> not (Pid.equal old_pid now)
              | None -> true)
            prev.Pickle.Binfile.uf_import_name_statics
        with
        | [] -> None
        | changed_mods ->
          (* culprit = the unit providing the changed module *)
          Some
            (Import_pid_changed
               (List.sort_uniq String.compare
                  (List.map
                     (fun (modname, _) ->
                       Option.value
                         ~default:(Support.Symbol.name modname)
                         (Hashtbl.find_opt provider modname))
                     changed_mods))))
  in
  (* [prepare] runs on the calling domain once every dependency of
     [file] completed: staleness check, then cache probe, and only if
     both miss does the node become a compile job. *)
  let prepare file =
    let p_start = Unix.gettimeofday () in
    let deps = deps_of file in
    let source = source_of file in
    let src_mtime =
      match t.fs.Vfs.fs_mtime file with
      | Some time -> time
      | None -> manager_error "source file %s not found" file
    in
    let bin_state = read_bin t file in
    let previous =
      match bin_state with
      | `Ok prev -> Some prev
      | `Corrupt | `Absent -> None
    in
    let source_newer =
      match t.fs.Vfs.fs_mtime (bin_path file) with
      | Some bin_time -> src_mtime > bin_time
      | None -> true
    in
    let cause =
      match bin_state with
      | `Corrupt -> Some Corrupt_entry
      | `Absent ->
        (* the profile store remembers whether this unit ever built
           before: a bin it has seen complete was evicted, anything
           else is a first build *)
        Some
          (match profile with
          | Some p when Obs.Profile.known p file -> Evicted
          | Some _ | None -> First_build)
      | `Ok prev ->
        if source_newer then Some Source_changed
        else stale_cause deps prev.rt_unit
    in
    let stale = cause <> None in
    let key = cache_key file source in
    Hashtbl.replace preps file
      {
        p_prev_pid =
          Option.map (fun r -> r.rt_unit.Pickle.Binfile.uf_static_pid) previous;
        p_key = key;
        p_start;
        p_cause = cause;
      };
    let compile_job () =
      Sched.Run
        {
          j_name = file;
          j_source = source;
          j_closure =
            List.map
              (fun dep ->
                match registered t dep with
                | Some r -> (dep, Lazy.force r.rt_view)
                | None ->
                  manager_error "dependency %s of %s was not built" dep file)
              (Depend.Depgraph.closure graph file);
          j_imports = deps;
          j_collect = keep_going;
          j_werror = werror;
          j_limit = max_errors;
          j_build = build_id;
        }
    in
    if not stale then begin
      match previous with
      | Some prev ->
        register t prev;
        Sched.Done { r_kind = Loaded; r_bytes = prev.rt_bytes; r_phases = [] }
      | None -> assert false
    end
    else
      match (cache, key) with
      | Some c, Some k -> (
        match c.Cache.o_find k with
        | None -> compile_job ()
        | Some bytes -> (
          (* validate by rehydrating; corrupt entries degrade to a miss *)
          match rehydrate t file bytes with
          | exception Pickle.Buf.Corrupt _ ->
            c.Cache.o_invalidate k;
            compile_job ()
          | r ->
            if String.equal r.rt_unit.Pickle.Binfile.uf_name file then
              Sched.Done { r_kind = Cache_hit; r_bytes = bytes; r_phases = [] }
            else begin
              c.Cache.o_invalidate k;
              compile_job ()
            end))
      | _ -> compile_job ()
  in
  (* [complete] merges a result back on the calling domain: rehydrate
     into the manager's session, write the bin file, feed the cache. *)
  let complete file result =
    let prep = Hashtbl.find preps file in
    (match result.r_kind with
    | Loaded -> ()
    | Recompiled | Cache_hit ->
      let r = rehydrate t file result.r_bytes in
      (* atomic commit: a crash mid-write must never leave a torn bin
         under the final name — at worst an orphan staging file that
         [recover] sweeps up *)
      Vfs.commit t.fs (bin_path file) result.r_bytes;
      register t r;
      Hashtbl.replace changed file ();
      if result.r_kind = Recompiled then begin
        (match (cache, prep.p_key) with
        | Some c, Some k -> c.Cache.o_store k result.r_bytes
        | _ -> ());
        match prep.p_prev_pid with
        | Some old when Pid.equal old r.rt_unit.Pickle.Binfile.uf_static_pid ->
          Obs.Trace.instant ~cat:"build"
            ~args:[ ("unit", file) ]
            "build.cutoff_hit"
        | _ -> ()
      end);
    Hashtbl.replace results file
      (result, Unix.gettimeofday () -. prep.p_start);
    result
  in
  let codec =
    match backend with
    | Sched.Pool _ -> Some (Wire.codec ())
    | Sched.Serial | Sched.Parallel _ -> None
  in
  (* one profile-store row per unit: its cause, timing, phases and
     import pids; the caller says what became of it *)
  let profile_unit ?skipped_by file ~outcome =
    let prep = Hashtbl.find_opt preps file in
    let res = Hashtbl.find_opt results file in
    let cause = Option.bind prep (fun pr -> pr.p_cause) in
    {
      Obs.Profile.up_unit = file;
      up_outcome = outcome;
      up_cause = Option.map cause_name cause;
      up_culprits =
        (match skipped_by with
        | Some culprit -> [ culprit ]
        | None -> Option.fold ~none:[] ~some:cause_culprits cause);
      up_start_s =
        (match prep with Some pr -> pr.p_start -. build_start | None -> 0.);
      up_wall_s = (match res with Some (_, s) -> s | None -> 0.);
      up_phases = (match res with Some (r, _) -> r.r_phases | None -> []);
      up_imports =
        List.map
          (fun dep ->
            ( dep,
              match registered_unit t dep with
              | Some u -> Pid.to_hex u.Pickle.Binfile.uf_static_pid
              | None -> "" ))
          (deps_of file);
      up_priority = priority_of file;
    }
  in
  let record_profile p ~wall_s ~jobs ~busy bp_units =
    Obs.Profile.record p
      {
        Obs.Profile.bp_id = build_id;
        bp_policy = policy_name policy;
        bp_backend = Sched.backend_name backend;
        bp_wall_s = wall_s;
        bp_jobs = jobs;
        bp_slot_busy_s = busy;
        bp_schedule = schedule_name schedule;
        bp_units;
      }
  in
  (* the finished units by result kind, in build order: recompiled,
     loaded, cache hits, and the recompiled ones whose interface pid
     held (cutoff hits) *)
  let finished () =
    let kind_of file =
      Option.map (fun (r, _) -> r.r_kind) (Hashtbl.find_opt results file)
    in
    let recompiled = List.filter (fun f -> kind_of f = Some Recompiled) order in
    let cutoff_hits =
      List.filter
        (fun f ->
          match ((Hashtbl.find preps f).p_prev_pid, registered_unit t f) with
          | Some old, Some unit_ ->
            Pid.equal old unit_.Pickle.Binfile.uf_static_pid
          | _ -> false)
        recompiled
    in
    ( recompiled,
      List.filter (fun f -> kind_of f = Some Loaded) order,
      List.filter (fun f -> kind_of f = Some Cache_hit) order,
      cutoff_hits )
  in
  (* a signal arriving mid-build raises [Interrupted] out of a node
     callback; the partial build still lands in the profile store (only
     the units that actually finished), so `irm profile` shows what an
     interrupted build managed to do before it died *)
  let record_partial reason =
    match profile with
    | None -> ()
    | Some p ->
      let recompiled, loaded, cache, cutoff = finished () in
      let outcome =
        outcome_index
          (partitions ~failed:[] ~skipped:[] ~cutoff ~recompiled ~cache ~loaded)
      in
      let bp_units =
        List.filter_map
          (fun file ->
            if Hashtbl.mem results file then
              Some (profile_unit file ~outcome:(outcome file))
            else None)
          order
      in
      Obs.Trace.instant ~cat:"build"
        ~args:[ ("reason", reason) ]
        "build.interrupted";
      record_profile p
        ~wall_s:(Unix.gettimeofday () -. build_start)
        ~jobs:(Sched.jobs backend) ~busy:[] bp_units
  in
  let outcomes =
    try
      Sched.run ~retries ~backoff_s ~retryable:transient_fault ~keep_going
        ~fatal:(function Interrupted _ -> true | _ -> false)
        ?codec
        ?priority:
          (match schedule with
          | Wavefront -> None
          | Critical_path -> Some priority_of)
        backend ~order ~deps:deps_of ~prepare ~execute ~complete
    with Interrupted reason as exn ->
      record_partial reason;
      raise exn
  in
  (* without [keep_going], Sched.run raised if any node failed, so every
     node completed; with it, failed and skipped nodes have no entry in
     [results] and land in their own partitions below *)
  let outcome_tbl = Hashtbl.create 16 in
  List.iter (fun (f, o) -> Hashtbl.replace outcome_tbl f o) outcomes;
  let failed =
    List.filter_map
      (fun f ->
        match Hashtbl.find_opt outcome_tbl f with
        | Some (Sched.Failed exn) ->
          let ds =
            match Diag.of_exn exn with
            | Some ds -> ds
            | None ->
              (* a non-diagnostic exception (injected fault that exhausted
                 its retries, …) still yields a structured diagnostic *)
              [
                Diag.make ~unit_name:f Diag.Manager Support.Loc.dummy
                  (Printexc.to_string exn);
              ]
          in
          Some (f, ds)
        | _ -> None)
      order
  in
  let skipped =
    List.filter_map
      (fun f ->
        match Hashtbl.find_opt outcome_tbl f with
        | Some (Sched.Skipped culprit) -> Some (f, culprit)
        | _ -> None)
      order
  in
  let recompiled, loaded, cache_hits, cutoff_hits = finished () in
  t.last_order <- order;
  Obs.Metrics.add m_recompiled (List.length recompiled);
  Obs.Metrics.add m_loaded (List.length loaded);
  Obs.Metrics.add m_cutoff_hits (List.length cutoff_hits);
  Obs.Metrics.add m_cache_hits (List.length cache_hits);
  Obs.Metrics.add m_failed (List.length failed);
  Obs.Metrics.add m_skipped (List.length skipped);
  let slots = Sched.last_slots () in
  let stats =
    {
      st_order = order;
      st_recompiled = recompiled;
      st_loaded = loaded;
      st_cache_hits = cache_hits;
      st_cutoff_hits = cutoff_hits;
      st_failed = failed;
      st_skipped = skipped;
      st_policy = policy;
      st_backend = backend;
      st_wall_s = Unix.gettimeofday () -. build_start;
      st_unit_times =
        List.filter_map
          (fun f ->
            Option.map (fun (_, s) -> (f, s)) (Hashtbl.find_opt results f))
          order;
      st_build_id = build_id;
      st_jobs =
        (match slots with
        | Some s -> s.Sched.sl_jobs
        | None -> Sched.jobs backend);
      st_slot_busy_s =
        (match slots with
        | Some s -> Array.to_list s.Sched.sl_busy_s
        | None -> []);
      st_causes =
        List.filter_map
          (fun f ->
            Option.bind (Hashtbl.find_opt preps f) (fun p ->
                Option.map (fun c -> (f, c)) p.p_cause))
          order;
      st_schedule = schedule;
    }
  in
  (* fold the build into the profile store (one committed record) —
     unless it compiled nothing and the store already knows every unit:
     such a record would feed no aggregate, explain no rebuild and push
     a build that did work out of the history *)
  (match profile with
  | None -> ()
  | Some p
    when recompiled = [] && cache_hits = [] && failed = [] && skipped = []
         && List.for_all (Obs.Profile.known p) order ->
    ()
  | Some p ->
    let outcome = outcome_of stats in
    record_profile p ~wall_s:stats.st_wall_s ~jobs:stats.st_jobs
      ~busy:stats.st_slot_busy_s
      (List.map
         (fun file ->
           profile_unit file ~outcome:(outcome file)
             ?skipped_by:(List.assoc_opt file skipped))
         order));
  stats

let result t file =
  match registered t file with
  | Some r -> r
  | None -> manager_error "unit %s has not been built" file

(* the code [run] decoded, or a decode that is not retained *)
let unit_of t file =
  let r = result t file in
  let code =
    if Lazy.is_val r.rt_code then Lazy.force r.rt_code
    else Pickle.Binfile.decode_code r.rt_bytes
  in
  { r.rt_unit with Pickle.Binfile.uf_codeunit = code }

let interface_of t file = (result t file).rt_unit

let static_view t file =
  Option.map (fun r -> Lazy.force r.rt_view) (Hashtbl.find_opt t.retained file)

let link_snapshot t =
  List.map
    (fun file -> (file, Lazy.force (result t file).rt_fingerprint))
    t.last_order

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

type recovery = {
  rv_intact : string list;
  rv_quarantined : string list;
  rv_missing : string list;
  rv_temps_swept : int;
}

let m_quarantined = Obs.Metrics.counter "build.quarantined"

let quarantine_path file = bin_path file ^ ".quarantined"

let recover t ~sources =
  Obs.Trace.span ~cat:"build" "build.recover" @@ fun () ->
  (* sweep staging files left behind by interrupted atomic commits *)
  let temps = List.filter Vfs.is_commit_temp (t.fs.Vfs.fs_list ()) in
  List.iter t.fs.Vfs.fs_remove temps;
  let intact = ref [] and quarantined = ref [] and missing = ref [] in
  List.iter
    (fun file ->
      match t.fs.Vfs.fs_read (bin_path file) with
      | None -> missing := file :: !missing
      | Some bytes -> (
        (* validate in a scratch session so a damaged file cannot
           register anything in the manager's context *)
        let ok =
          match Sepcomp.Compile.load (Sepcomp.Compile.new_session ()) bytes with
          | unit_ -> String.equal unit_.Pickle.Binfile.uf_name file
          | exception Pickle.Buf.Corrupt _ -> false
        in
        if ok then intact := file :: !intact
        else begin
          (* set the damaged bin aside (for postmortems) so the next
             build sees it as absent and recompiles the unit instead of
             aborting the wavefront *)
          (try t.fs.Vfs.fs_rename (bin_path file) (quarantine_path file) with
          | Vfs.Fault _ | Sys_error _ -> t.fs.Vfs.fs_remove (bin_path file));
          Obs.Metrics.incr m_quarantined;
          quarantined := file :: !quarantined
        end))
    sources;
  {
    rv_intact = List.rev !intact;
    rv_quarantined = List.rev !quarantined;
    rv_missing = List.rev !missing;
    rv_temps_swept = List.length temps;
  }

let pp_recovery ppf r =
  Format.fprintf ppf "intact      %d@.quarantined %d%s@.missing     \
                      %d@.temps swept %d@."
    (List.length r.rv_intact)
    (List.length r.rv_quarantined)
    (match r.rv_quarantined with
    | [] -> ""
    | files -> "  (" ^ String.concat ", " files ^ ")")
    (List.length r.rv_missing) r.rv_temps_swept

let run ?output t ~sources =
  Obs.Trace.span ~cat:"build" "build.run" @@ fun () ->
  (* execute in the order recorded by the last build; only if the
     requested sources differ from that build do we fall back to
     re-deriving the order from the (warm) dependency scan *)
  let same_sources =
    List.sort String.compare sources
    = List.sort String.compare t.last_order
  in
  let order =
    if same_sources then t.last_order
    else Depend.Depgraph.topological (dependency_graph t ~sources)
  in
  List.fold_left
    (fun dynenv file ->
      let r = result t file in
      Sepcomp.Compile.execute ?output
        { r.rt_unit with Pickle.Binfile.uf_codeunit = Lazy.force r.rt_code }
        dynenv)
    Link.Linker.empty order

(* ------------------------------------------------------------------ *)
(* Build reports                                                       *)
(* ------------------------------------------------------------------ *)

let summary_line stats =
  let broken =
    match (List.length stats.st_failed, List.length stats.st_skipped) with
    | 0, 0 -> ""
    | f, s -> Printf.sprintf " / %d failed / %d skipped" f s
  in
  Printf.sprintf
    "%d recompiled / %d loaded / %d cache / %d cutoff%s (%s policy, %s, %.1f \
     ms)"
    (List.length stats.st_recompiled)
    (List.length stats.st_loaded)
    (List.length stats.st_cache_hits)
    (List.length stats.st_cutoff_hits)
    broken
    (policy_name stats.st_policy)
    (Sched.backend_name stats.st_backend)
    (1000. *. stats.st_wall_s)

(* report paths iterate every unit; index the per-unit lists once
   instead of List.assoc-ing each lookup *)
let times_index stats =
  let tbl = Hashtbl.create (List.length stats.st_unit_times) in
  List.iter (fun (file, s) -> Hashtbl.replace tbl file s) stats.st_unit_times;
  tbl

let pp_report ppf stats =
  let times = times_index stats in
  let outcome = outcome_of stats in
  Format.fprintf ppf "build report (%s policy, %s)@."
    (policy_name stats.st_policy)
    (Sched.backend_name stats.st_backend);
  List.iter
    (fun file ->
      let ms =
        match Hashtbl.find_opt times file with
        | Some s -> 1000. *. s
        | None -> 0.
      in
      Format.fprintf ppf "  %-28s %-10s %8.2f ms@." file (outcome file) ms)
    stats.st_order;
  List.iter
    (fun (_, ds) -> List.iter (fun d -> Format.fprintf ppf "  %a@." Diag.pp d) ds)
    stats.st_failed;
  List.iter
    (fun (file, culprit) ->
      Format.fprintf ppf "  %s: skipped: dependency %s failed@." file culprit)
    stats.st_skipped;
  Format.fprintf ppf "  %s@." (summary_line stats)

(* structured diagnostics as JSON — lives here rather than in Support
   because the support layer does not depend on Obs *)
let diag_json (d : Diag.t) =
  let open Obs.Json in
  Obj
    [
      ("severity", String (Diag.severity_name d.Diag.severity));
      ("phase", String (Diag.phase_id d.Diag.phase));
      ("code", String d.Diag.code);
      ("file", String d.Diag.loc.Support.Loc.file);
      ("line", Int d.Diag.loc.Support.Loc.start_pos.Support.Loc.line);
      ("col", Int d.Diag.loc.Support.Loc.start_pos.Support.Loc.col);
      ("message", String d.Diag.message);
      ( "unit",
        match d.Diag.unit_name with Some u -> String u | None -> Null );
    ]

let report_json stats =
  let times = times_index stats in
  let outcome = outcome_of stats in
  Obs.Json.Obj
    [
      ("policy", Obs.Json.String (policy_name stats.st_policy));
      ("backend", Obs.Json.String (Sched.backend_name stats.st_backend));
      ("wall_s", Obs.Json.Float stats.st_wall_s);
      ("recompiled", Obs.Json.Int (List.length stats.st_recompiled));
      ("loaded", Obs.Json.Int (List.length stats.st_loaded));
      ("cache_hits", Obs.Json.Int (List.length stats.st_cache_hits));
      ("cutoff_hits", Obs.Json.Int (List.length stats.st_cutoff_hits));
      ("failed", Obs.Json.Int (List.length stats.st_failed));
      ("skipped", Obs.Json.Int (List.length stats.st_skipped));
      ( "diagnostics",
        Obs.Json.List
          (List.concat_map
             (fun (_, ds) -> List.map diag_json ds)
             stats.st_failed) );
      ( "units",
        Obs.Json.List
          (List.map
             (fun file ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String file);
                   ("outcome", Obs.Json.String (outcome file));
                   ( "wall_s",
                     match Hashtbl.find_opt times file with
                     | Some s -> Obs.Json.Float s
                     | None -> Obs.Json.Null );
                 ])
             stats.st_order) );
    ]
