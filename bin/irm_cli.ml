(* irm — the Incremental Recompilation Manager as a command-line tool.

     irm build sources.cm --policy cutoff --trace build.json --stats
     irm build sources.cm --jobs 4 --cache
     irm run sources.cm
     irm stats sources.cm
     irm deps sources.cm
     irm recover sources.cm
     irm cache stats | gc | clear
     irm explain sort.sml
     irm profile --json

   A group file lists source paths, one per line; dependency order is
   computed automatically (section 8 of the paper).  --jobs picks the
   worker-domain count (independent units compile concurrently; the
   resulting bin files are byte-identical to a serial build); --cache
   keeps a content-addressed store of compiled units so any previously
   seen (source, imports) pair is reused instead of recompiled.
   --trace writes a Chrome trace_event file (open in chrome://tracing
   or Perfetto); --stats prints the per-unit build report and the
   metric counters.

   Every build is recorded into the persistent profile store
   (.irm-profile, disable with --no-profile): per-unit outcomes,
   structured rebuild causes with culprit imports, phase durations and
   slot occupancy.  `irm explain UNIT` answers "why did this unit
   rebuild, what did it drag with it, and what does it usually cost";
   `irm profile` prints the last build's critical path, slowest units
   and scheduler efficiency (--json emits the smlsep-profile/1
   envelope, schema schemas/profile.schema.json).

   --fault-seed wraps the file system in the deterministic
   fault-injection layer (for exercising crash safety: a simulated
   crash exits with code 3 and an intact on-disk state; rerunning
   without faults recovers).  `irm recover` quarantines damaged bin
   files and sweeps staging files so the next build recompiles exactly
   what was lost.

   `irm daemon start` launches the compile server: a long-running
   process holding warm build state (sessions, cache index, profile
   store) behind a Unix socket in .irm-daemon/.  --daemon on build,
   run, explain and profile routes the request there — falling back to
   in-process execution when nobody is listening — and --watch makes
   the daemon rebuild the dependent cone of changed files as its
   polling watcher sees them. *)

(* SIGINT/SIGTERM abort the build via Driver.Interrupted, which the
   driver treats as fatal even under --keep-going: partial results are
   recorded into the profile store and [guarded] maps it to exit 130 *)
let install_interrupt () =
  let handler name =
    Sys.Signal_handle (fun _ -> raise (Irm.Driver.Interrupted name))
  in
  Sys.set_signal Sys.sigint (handler "SIGINT");
  Sys.set_signal Sys.sigterm (handler "SIGTERM")

let parse_policy = function
  | "cutoff" -> Ok Irm.Driver.Cutoff
  | "timestamp" -> Ok Irm.Driver.Timestamp
  | "selective" -> Ok Irm.Driver.Selective
  | other -> Error (`Msg (Printf.sprintf "unknown policy %S" other))

let with_manager ?fault_seed ?(fault_ops = 32) dir group f =
  let fs = Vfs.real ~dir in
  let fs =
    match fault_seed with
    | None -> fs
    | Some seed ->
      let plan = Vfs.seeded_plan ~seed ~ops:fault_ops in
      Printf.eprintf "fault injection: seed %d over %d ops — plan [%s]\n%!"
        seed fault_ops
        (String.concat "; " (List.map Vfs.fault_name plan));
      fst (Vfs.faulty ~plan fs)
  in
  let sources = Irm.Group.load fs group in
  let mgr = Irm.Driver.create fs in
  f fs mgr sources

let backend_of_jobs jobs =
  if jobs <= 1 then Irm.Driver.Serial else Irm.Driver.Parallel jobs

(* --schedule=auto: critical-path once the profile store has a recorded
   build to estimate from, classical wavefront otherwise (including
   under --no-profile, where there are no estimates to be had) *)
let resolve_schedule ?profile = function
  | `Wavefront -> Irm.Driver.Wavefront
  | `Critical_path -> Irm.Driver.Critical_path
  | `Auto -> (
    match profile with
    | Some p when Obs.Profile.builds p <> [] -> Irm.Driver.Critical_path
    | Some _ | None -> Irm.Driver.Wavefront)

let schedule_string = function
  | `Auto -> "auto"
  | `Wavefront -> "wavefront"
  | `Critical_path -> "critical-path"

let parse_remote_addr s =
  match Remote.Transport.parse_addr s with
  | Ok addr -> addr
  | Error msg ->
    Support.Diag.error Support.Diag.Manager Support.Loc.dummy "--remote: %s"
      msg

(* --remote beats --workers beats --jobs: the more isolated backend is
   always the explicit opt-in *)
let backend_of ~jobs ~workers ~worker_timeout ?(remotes = [])
    ?(remote_timeout = 30.) ?(remote_fallback = true) () =
  if remotes <> [] then
    Irm.Driver.Pool
      {
        (Remote.Pool.default_config
           (Dial (List.map parse_remote_addr remotes)))
        with
        timeout_s = remote_timeout;
        local_fallback = remote_fallback;
      }
  else if workers > 0 then
    Irm.Driver.Pool
      { (Remote.Pool.default_config (Spawn workers)) with
        timeout_s = worker_timeout }
  else backend_of_jobs jobs

(* --remote-cache: read through the shared cache service, with the
   local cache (when --cache is also on) in front.  The client degrades
   to local-only by itself when the service is unreachable, so the ops
   never fail the build. *)
let cache_ops_of cache = function
  | None -> Option.map Cache.ops cache
  | Some addr_s ->
    let addr = parse_remote_addr addr_s in
    Some
      (Remote.Cache_client.ops
         (Remote.Cache_client.create
            ?local:(Option.map Cache.ops cache)
            addr))

let profile_of fs no_profile profile_dir =
  if no_profile then None else Some (Obs.Profile.load ~dir:profile_dir fs)

let cache_of fs enabled cache_dir budget_mb =
  if enabled then
    Some
      (Cache.create ~dir:cache_dir
         ~budget_bytes:(budget_mb * 1024 * 1024)
         fs)
  else None

(* the telemetry envelope: enable tracing when requested, run, then
   write the trace file and print the metric counters — through
   Fun.protect, so an interrupted build still flushes its trace *)
let with_obs trace stats f =
  if trace <> None then Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          Obs.Trace.write_chrome path;
          Printf.eprintf "trace written to %s (%d spans)\n" path
            (List.length (Obs.Trace.events ())))
        trace;
      if stats then Format.printf "metrics:@.%a%!" Obs.Metrics.pp ())
    f

let guarded ?(error_format = `Text) f =
  let report ds =
    match error_format with
    | `Text -> List.iter (fun d -> prerr_endline (Support.Diag.to_string d)) ds
    | `Json ->
      print_endline
        (Obs.Json.to_string (Irm.Introspect.diagnostics_envelope ds))
  in
  match Support.Diag.guard_all f with
  | Ok code -> code
  | Error ds ->
    report ds;
    1
  | exception Irm.Driver.Interrupted reason ->
    Printf.eprintf
      "interrupted by %s — partial results are recorded; rerun to converge\n"
      reason;
    130
  | exception Daemon.Lock.Held { lock_path; holder } ->
    Printf.eprintf
      "the build lock %s is held by pid %s — another build (or the daemon) \
       is running in this directory; retry when it finishes\n"
      lock_path holder;
    1
  | exception Daemon.Server.Already_running sock ->
    Printf.eprintf "a daemon is already serving this directory (socket %s)\n"
      sock;
    1
  | exception Daemon.Client.Protocol_error msg ->
    Printf.eprintf "daemon protocol error: %s\n" msg;
    1
  | exception Daemon.Client.Timeout msg ->
    Printf.eprintf "daemon timeout: %s\n" msg;
    1
  | exception Pickle.Buf.Corrupt msg ->
    report [ Support.Diag.make Support.Diag.Pickle Support.Loc.dummy msg ];
    1
  | exception Dynamics.Eval.Sml_raise packet ->
    Printf.eprintf "uncaught exception: %s\n" (Dynamics.Value.to_string packet);
    1
  | exception Dynamics.Eval.Sml_exit code -> code
  | exception Vfs.Crash { crash_op; crash_path } ->
    Printf.eprintf
      "simulated crash during %s of %s — on-disk state is safe; rerun \
       (optionally `irm recover`) to converge\n"
      crash_op crash_path;
    3
  | exception Vfs.Fault { fault_op; fault_path; _ } ->
    Printf.eprintf "injected fault persisted: %s of %s failed\n" fault_op
      fault_path;
    1
  | exception Sys_error msg ->
    prerr_endline msg;
    1
  | exception Remote.Pool.Pool_down msg ->
    Printf.eprintf
      "build aborted: the compile worker pool died entirely (%s)\n" msg;
    4

let require_sources group sources =
  if sources = [] then
    Support.Diag.error Support.Diag.Manager Support.Loc.dummy
      "group file %s lists no sources" group

(* print a rendered report on the process's own streams *)
let emit (r : Irm.Introspect.rendered) =
  print_string r.Irm.Introspect.out;
  prerr_string r.Irm.Introspect.err;
  r.Irm.Introspect.code

(* render a build's failed/skipped partitions: structured diagnostics
   with source excerpts on stderr (text) or the JSON envelope on stdout;
   returns the exit code the partitions call for *)
let report_diagnostics fs error_format (stats : Irm.Driver.stats) =
  emit
    (Irm.Introspect.report_diagnostics ~source_of:fs.Vfs.fs_read
       ~json:(error_format = `Json) stats)

let build_units ~backend ~schedule ?cache ?profile ~keep_going ~werror
    ?max_errors ~error_format fs mgr policy sources =
  let stats =
    Irm.Driver.build ~backend ~schedule ?cache ?profile ~keep_going ~werror
      ?max_errors mgr ~policy ~sources
  in
  if error_format = `Text then
    print_string (Irm.Introspect.build_listing mgr stats);
  let code = report_diagnostics fs error_format stats in
  (stats, code)

(* --daemon: hand the request to a listening compile server; fall back
   to in-process execution when nobody is there *)
let daemon_client ~use_daemon dir =
  if not use_daemon then None
  else
    match Daemon.Client.connect ~dir () with
    | Some _ as c -> c
    | None ->
      Printf.eprintf "irm: no daemon is listening in %s; running in-process\n%!"
        dir;
      None

let finish_daemon c req =
  Fun.protect ~finally:(fun () -> Daemon.Client.close c) @@ fun () ->
  let resp = Daemon.Client.request ~on_diag:print_string c req in
  print_string resp.Daemon.Protocol.r_out;
  prerr_string resp.Daemon.Protocol.r_err;
  resp.Daemon.Protocol.r_code

let pp_cache_stats = function
  | Some cache -> Format.printf "cache:@.%a" Cache.pp_stats (Cache.stats cache)
  | None -> ()

(* build options as the daemon protocol carries them; process-only
   features (--workers, --fault-seed, --trace, --stats) stay local *)
let daemon_build_opts group policy schedule jobs use_cache keep_going werror
    max_errors error_format =
  {
    Daemon.Protocol.b_group = group;
    b_policy = Irm.Driver.policy_name policy;
    b_jobs = jobs;
    b_cache = use_cache;
    b_keep_going = keep_going;
    b_werror = werror;
    b_max_errors = max_errors;
    b_error_json = (error_format = `Json);
    (* [auto] travels as-is: the daemon resolves it against its own warm
       profile store *)
    b_schedule = schedule_string schedule;
  }

(* --workers forks, --fault-seed wraps the daemon's real fs, --remote
   owns its own connections — all strictly in-process features, so they
   win over --daemon *)
let daemon_routable ~use_daemon ~workers ~fault_seed ?(remotes = []) () =
  if use_daemon && (workers > 0 || fault_seed <> None || remotes <> []) then begin
    Printf.eprintf
      "irm: --workers, --remote and --fault-seed are in-process features; \
       ignoring --daemon\n%!";
    false
  end
  else use_daemon

let build_cmd_impl dir group policy schedule jobs workers worker_timeout
    remotes remote_cache remote_timeout no_remote_fallback use_cache cache_dir
    budget_mb no_profile profile_dir trace stats_flag fault_seed fault_ops
    keep_going werror max_errors error_format use_daemon =
  guarded ~error_format (fun () ->
      let use_daemon =
        daemon_routable ~use_daemon ~workers ~fault_seed ~remotes ()
      in
      match daemon_client ~use_daemon dir with
      | Some c ->
        finish_daemon c
          (Daemon.Protocol.Build
             (daemon_build_opts group policy schedule jobs use_cache keep_going
                werror max_errors error_format))
      | None ->
        install_interrupt ();
        with_manager ?fault_seed ~fault_ops dir group (fun fs mgr sources ->
            require_sources group sources;
            Daemon.Lock.with_lock ~dir @@ fun () ->
            let cache = cache_of fs use_cache cache_dir budget_mb in
            let profile = profile_of fs no_profile profile_dir in
            let schedule = resolve_schedule ?profile schedule in
            with_obs trace stats_flag (fun () ->
                let stats, code =
                  build_units
                    ~backend:
                      (backend_of ~jobs ~workers ~worker_timeout ~remotes
                         ~remote_timeout
                         ~remote_fallback:(not no_remote_fallback) ())
                    ~schedule
                    ?cache:(cache_ops_of cache remote_cache)
                    ?profile ~keep_going ~werror ?max_errors ~error_format fs
                    mgr policy sources
                in
                if stats_flag then begin
                  Format.printf "%a" Irm.Driver.pp_report stats;
                  pp_cache_stats cache
                end;
                code)))

let run_cmd_impl dir group policy schedule jobs workers worker_timeout remotes
    remote_cache remote_timeout no_remote_fallback use_cache cache_dir
    budget_mb no_profile profile_dir trace stats_flag fault_seed fault_ops
    keep_going werror max_errors error_format use_daemon =
  guarded ~error_format (fun () ->
      let use_daemon =
        daemon_routable ~use_daemon ~workers ~fault_seed ~remotes ()
      in
      match daemon_client ~use_daemon dir with
      | Some c ->
        finish_daemon c
          (Daemon.Protocol.Run
             (daemon_build_opts group policy schedule jobs use_cache keep_going
                werror max_errors error_format))
      | None ->
        install_interrupt ();
        with_manager ?fault_seed ~fault_ops dir group (fun fs mgr sources ->
            require_sources group sources;
            Daemon.Lock.with_lock ~dir @@ fun () ->
            let cache = cache_of fs use_cache cache_dir budget_mb in
            let profile = profile_of fs no_profile profile_dir in
            let schedule = resolve_schedule ?profile schedule in
            with_obs trace stats_flag (fun () ->
                let stats =
                  Irm.Driver.build
                    ~backend:
                      (backend_of ~jobs ~workers ~worker_timeout ~remotes
                         ~remote_timeout
                         ~remote_fallback:(not no_remote_fallback) ())
                    ~schedule
                    ?cache:(cache_ops_of cache remote_cache)
                    ?profile ~keep_going ~werror ?max_errors mgr ~policy
                    ~sources
                in
                let code = report_diagnostics fs error_format stats in
                (* failed or skipped units have no bin to execute — report
                   the diagnostics and stop before running anything *)
                if code = 0 then ignore (Irm.Driver.run mgr ~sources);
                if stats_flag then begin
                  Format.printf "%a" Irm.Driver.pp_report stats;
                  pp_cache_stats cache
                end;
                code)))

let stats_cmd_impl dir group policy schedule jobs workers worker_timeout
    remotes remote_cache remote_timeout no_remote_fallback use_cache cache_dir
    budget_mb no_profile profile_dir trace json keep_going werror max_errors =
  guarded (fun () ->
      install_interrupt ();
      with_manager dir group (fun fs mgr sources ->
          require_sources group sources;
          Daemon.Lock.with_lock ~dir @@ fun () ->
          let cache = cache_of fs use_cache cache_dir budget_mb in
          let profile = profile_of fs no_profile profile_dir in
          let schedule = resolve_schedule ?profile schedule in
          with_obs trace false (fun () ->
              let stats =
                Irm.Driver.build
                  ~backend:
                    (backend_of ~jobs ~workers ~worker_timeout ~remotes
                       ~remote_timeout
                       ~remote_fallback:(not no_remote_fallback) ())
                  ~schedule
                  ?cache:(cache_ops_of cache remote_cache)
                  ?profile ~keep_going ~werror ?max_errors mgr ~policy ~sources
              in
              if json then
                print_endline
                  (Obs.Json.to_string
                     (Obs.Json.Obj
                        [
                          ("build", Irm.Driver.report_json stats);
                          ("metrics", Obs.Metrics.to_json ());
                        ]))
              else begin
                Format.printf "%a" Irm.Driver.pp_report stats;
                Format.printf "metrics:@.%a" Obs.Metrics.pp ()
              end;
              if stats.Irm.Driver.st_failed = [] then 0 else 1)))

let deps_cmd_impl dir group dot =
  guarded (fun () ->
      with_manager dir group (fun _fs mgr sources ->
          let graph = Irm.Driver.dependency_graph mgr ~sources in
          let order = Depend.Depgraph.topological graph in
          if dot then begin
            print_endline "digraph deps {";
            print_endline "  rankdir=BT;";
            List.iter
              (fun file ->
                let node = Depend.Depgraph.node graph file in
                if node.Depend.Depgraph.n_deps = [] then
                  Printf.printf "  %S;\n" file
                else
                  List.iter
                    (fun dep -> Printf.printf "  %S -> %S;\n" file dep)
                    node.Depend.Depgraph.n_deps)
              order;
            print_endline "}"
          end
          else
            List.iter
              (fun file ->
                let node = Depend.Depgraph.node graph file in
                Printf.printf "%s: %s\n" file
                  (String.concat " " node.Depend.Depgraph.n_deps))
              order;
          0))

let recover_cmd_impl dir group =
  guarded (fun () ->
      with_manager dir group (fun _fs mgr sources ->
          require_sources group sources;
          let report = Irm.Driver.recover mgr ~sources in
          Format.printf "%a" Irm.Driver.pp_recovery report;
          0))

let cache_cmd_impl dir cache_dir budget_mb action =
  guarded (fun () ->
      let fs = Vfs.real ~dir in
      let cache =
        Cache.create ~dir:cache_dir
          ~budget_bytes:(budget_mb * 1024 * 1024)
          fs
      in
      (match action with
      | `Stats -> ()
      | `Gc ->
        let report = Cache.gc cache in
        Format.printf "gc:@.%a" Cache.pp_gc_report report
      | `Clear -> Cache.clear cache);
      Format.printf "%a" Cache.pp_stats (Cache.stats cache);
      0)

(* ------------------------------------------------------------------ *)
(* Build introspection: explain and profile (rendering lives in
   Irm.Introspect, shared with the daemon)                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd_impl dir profile_dir unit_ json use_daemon =
  guarded (fun () ->
      match daemon_client ~use_daemon dir with
      | Some c ->
        finish_daemon c
          (Daemon.Protocol.Explain { e_unit = unit_; e_json = json })
      | None ->
        let fs = Vfs.real ~dir in
        let p = Obs.Profile.load ~dir:profile_dir fs in
        emit (Irm.Introspect.explain p ~unit_name:unit_ ~json))

let profile_cmd_impl dir profile_dir json top use_daemon =
  guarded (fun () ->
      match daemon_client ~use_daemon dir with
      | Some c ->
        finish_daemon c (Daemon.Protocol.Profile { p_json = json; p_top = top })
      | None ->
        let fs = Vfs.real ~dir in
        let p = Obs.Profile.load ~dir:profile_dir fs in
        emit (Irm.Introspect.profile_report p ~json ~top))

(* ------------------------------------------------------------------ *)
(* The compile server: daemon start / stop / status                    *)
(* ------------------------------------------------------------------ *)

let daemon_config dir state_dir groups watch poll_s client_timeout use_cache
    policy jobs log =
  {
    Daemon.Server.d_dir = dir;
    d_state_dir = state_dir;
    d_groups = groups;
    d_watch = watch;
    d_poll_s = poll_s;
    d_client_timeout_s = client_timeout;
    d_cache = use_cache;
    d_policy = Irm.Driver.policy_name policy;
    d_jobs = jobs;
    d_log = log;
  }

let daemon_start_impl dir state_dir groups watch poll_s client_timeout
    use_cache policy jobs foreground =
  guarded (fun () ->
      if foreground then begin
        let server =
          Daemon.Server.create
            (daemon_config dir state_dir groups watch poll_s client_timeout
               use_cache policy jobs prerr_endline)
        in
        install_interrupt ();
        Daemon.Server.run server;
        0
      end
      else begin
        let log_path = Daemon.Protocol.log_path ~dir ~state_dir in
        (try Unix.mkdir (Filename.dirname log_path) 0o755
         with Unix.Unix_error _ -> ());
        (* daemonize.  Forking is safe here: no domain has been spawned
           yet, and the daemon's own Parallel domains are born after *)
        match Unix.fork () with
        | 0 ->
          ignore (Unix.setsid ());
          let log_fd =
            Unix.openfile log_path
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
              0o644
          in
          let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
          Unix.dup2 devnull Unix.stdin;
          Unix.dup2 log_fd Unix.stdout;
          Unix.dup2 log_fd Unix.stderr;
          Unix.close devnull;
          Unix.close log_fd;
          let code =
            guarded (fun () ->
                let server =
                  Daemon.Server.create
                    (daemon_config dir state_dir groups watch poll_s
                       client_timeout use_cache policy jobs
                       (fun line -> Printf.eprintf "%s\n%!" line))
                in
                install_interrupt ();
                Daemon.Server.run server;
                0)
          in
          Stdlib.exit code
        | child ->
          (* parent: hand back once the daemon answers its socket (or
             died trying) *)
          let deadline = Unix.gettimeofday () +. 10. in
          let rec await () =
            match Unix.waitpid [ Unix.WNOHANG ] child with
            | pid, status when pid = child ->
              Printf.eprintf "daemon exited at startup (%s); see %s\n"
                (match status with
                | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
                | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n)
                log_path;
              1
            | _ -> (
              match Daemon.Client.connect ~state_dir ~dir () with
              | Some c ->
                Daemon.Client.close c;
                Printf.printf "daemon started (pid %d), socket %s\n" child
                  (Daemon.Protocol.socket_path ~dir ~state_dir);
                0
              | None ->
                if Unix.gettimeofday () > deadline then begin
                  Printf.eprintf "daemon did not come up within 10s; see %s\n"
                    log_path;
                  1
                end
                else begin
                  Unix.sleepf 0.1;
                  await ()
                end)
          in
          await ()
      end)

let daemon_stop_impl dir state_dir =
  guarded (fun () ->
      match Daemon.Client.connect ~state_dir ~dir () with
      | Some c ->
        let resp = Daemon.Client.request c Daemon.Protocol.Shutdown in
        Daemon.Client.close c;
        print_endline "daemon stopped";
        resp.Daemon.Protocol.r_code
      | None -> (
        (* nobody answering the socket: fall back to the pid file *)
        let pid_path = Daemon.Protocol.pid_path ~dir ~state_dir in
        let no_daemon () =
          prerr_endline "no daemon is serving this directory";
          1
        in
        match In_channel.with_open_bin pid_path In_channel.input_all with
        | exception Sys_error _ -> no_daemon ()
        | contents -> (
          match int_of_string_opt (String.trim contents) with
          | None -> no_daemon ()
          | Some pid -> (
            match Unix.kill pid Sys.sigterm with
            | () ->
              Printf.printf "sent SIGTERM to daemon pid %d\n" pid;
              0
            | exception Unix.Unix_error _ -> no_daemon ()))))

let daemon_status_impl dir state_dir json =
  guarded (fun () ->
      (* probe, don't connect: a SIGKILL'd daemon must report as stale
         (and have its leftovers swept), not hang out the client timeout *)
      match Daemon.Client.probe ~state_dir ~dir () with
      | Daemon.Client.Absent ->
        prerr_endline "no daemon is serving this directory";
        1
      | Daemon.Client.Stale (Some pid) ->
        Printf.eprintf
          "daemon is stale (pid %d dead); removed its socket and pid files\n"
          pid;
        1
      | Daemon.Client.Stale None ->
        prerr_endline
          "daemon is stale (no live process); removed its socket and pid \
           files";
        1
      | Daemon.Client.Unresponsive pid ->
        Printf.eprintf
          "daemon (pid %d) is alive but not answering its socket — likely \
           mid-build; retry, or `irm daemon stop`\n"
          pid;
        1
      | Daemon.Client.Live c ->
        let resp = Daemon.Client.request c Daemon.Protocol.Status in
        Daemon.Client.close c;
        if json then print_string resp.Daemon.Protocol.r_out
        else begin
          let j = Obs.Json.parse resp.Daemon.Protocol.r_out in
          let str k v =
            match Obs.Json.member k v with
            | Some (Obs.Json.String s) -> s
            | _ -> "?"
          in
          let int_ k v =
            match Obs.Json.member k v with Some (Obs.Json.Int n) -> n | _ -> 0
          in
          let float_ k v =
            match Obs.Json.member k v with
            | Some (Obs.Json.Float f) -> f
            | Some (Obs.Json.Int n) -> float_of_int n
            | _ -> 0.
          in
          Printf.printf "daemon %s  (pid %d, up %.1fs)\n" (str "version" j)
            (int_ "pid" j) (float_ "uptime_s" j);
          Printf.printf "  served    %d requests, %d clients connected\n"
            (int_ "served" j) (int_ "clients" j);
          (match Obs.Json.member "watch" j with
          | Some w ->
            Printf.printf
              "  watch     %s, poll %.2fs: %d files tracked, %d sweeps, %d \
               dirty\n"
              (match Obs.Json.member "eager" w with
              | Some (Obs.Json.Bool true) -> "eager"
              | _ -> "lazy")
              (float_ "poll_s" w) (int_ "tracked" w) (int_ "sweeps" w)
              (int_ "dirty_total" w)
          | None -> ());
          match Obs.Json.member "groups" j with
          | Some (Obs.Json.List gs) ->
            List.iter
              (fun g ->
                let epoch =
                  match Obs.Json.member "epoch" g with
                  | Some (Obs.Json.Int n) -> Printf.sprintf ", epoch %d" n
                  | _ -> ""
                in
                let swaps =
                  match Obs.Json.member "swaps" g with
                  | Some s ->
                    let n k =
                      match Obs.Json.member k s with
                      | Some (Obs.Json.Int v) -> v
                      | _ -> 0
                    in
                    if n "null" + n "epoch" + n "rollbacks" = 0 then ""
                    else
                      Printf.sprintf
                        " — swaps: %d null / %d epoch / %d rollbacks"
                        (n "null") (n "epoch") (n "rollbacks")
                  | None -> ""
                in
                Printf.printf "  group     %s: %d units, %d builds%s%s\n"
                  (str "group" g) (int_ "units" g) (int_ "builds" g) epoch
                  swaps)
              gs
          | _ -> ()
        end;
        resp.Daemon.Protocol.r_code)

(* `irm swap UNIT`: ask the daemon to rebuild the unit's group and
   swap it into the live epoch, reporting the outcome *)
let swap_impl dir state_dir group unit_ =
  guarded (fun () ->
      match Daemon.Client.connect ~state_dir ~dir () with
      | None ->
        prerr_endline
          "no daemon is serving this directory (swapping needs `irm daemon \
           start`)";
        1
      | Some c ->
        finish_daemon c
          (Daemon.Protocol.Swap { s_group = group; s_unit = unit_ }))

let daemon_epochs_impl dir state_dir group json =
  guarded (fun () ->
      match Daemon.Client.connect ~state_dir ~dir () with
      | None ->
        prerr_endline "no daemon is serving this directory";
        1
      | Some c ->
        finish_daemon c
          (Daemon.Protocol.Epochs { ep_group = group; ep_json = json }))


(* ------------------------------------------------------------------ *)
(* The build fabric's services: remote executor and shared cache       *)
(* ------------------------------------------------------------------ *)

(* both services run in the foreground: the reactor loops on its own
   socket until SIGINT/SIGTERM asks it to stop.  Neither spawns
   domains, so serve-exec's worker pool can still fork children. *)
let serve_until_signalled ~stop ~run =
  let handler = Sys.Signal_handle (fun _ -> stop ()) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  run ();
  0

let serve_exec_impl listen exec_jobs worker_timeout =
  guarded (fun () ->
      let addr = parse_remote_addr listen in
      let mode =
        if exec_jobs <= 0 then Remote.Exec.Inline
        else
          Remote.Exec.Pool
            { (Remote.Pool.default_config (Spawn exec_jobs)) with
              timeout_s = worker_timeout }
      in
      let exec = Remote.Exec.create ~mode addr (Irm.Wire.proto ()) in
      Printf.eprintf "irm: executor serving on %s (%s)\n%!"
        (Remote.Transport.addr_to_string (Remote.Exec.addr exec))
        (if exec_jobs <= 0 then "inline"
         else Printf.sprintf "%d worker processes" exec_jobs);
      serve_until_signalled
        ~stop:(fun () -> Remote.Exec.stop exec)
        ~run:(fun () -> Remote.Exec.run exec))

let serve_cache_impl dir listen shards budget_mb cache_dir =
  guarded (fun () ->
      let addr = parse_remote_addr listen in
      let fs = Vfs.real ~dir in
      let srv =
        Remote.Cached.create ~shards
          ~budget_bytes:(budget_mb * 1024 * 1024)
          ~dir:cache_dir addr fs
      in
      Printf.eprintf "irm: cache service serving on %s (%d shards under %s)\n%!"
        (Remote.Transport.addr_to_string (Remote.Cached.addr srv))
        shards cache_dir;
      serve_until_signalled
        ~stop:(fun () -> Remote.Cached.stop srv)
        ~run:(fun () -> Remote.Cached.run srv))

open Cmdliner

let dir_arg =
  Arg.(
    value & opt dir "."
    & info [ "C"; "directory" ] ~docv:"DIR" ~doc:"Project root directory.")

let group_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"GROUP" ~doc:"Group file listing the source files.")

let policy_arg =
  let policy_conv =
    Arg.conv ~docv:"POLICY"
      ( parse_policy,
        fun ppf p -> Format.pp_print_string ppf (Irm.Driver.policy_name p) )
  in
  Arg.(
    value & opt policy_conv Irm.Driver.Cutoff
    & info [ "p"; "policy" ] ~docv:"POLICY"
        ~doc:
          "Recompilation policy: $(b,cutoff) (interface pids), \
           $(b,selective) (per-module interface pids) or $(b,timestamp) \
           (classical make).")

let schedule_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", `Auto);
             ("wavefront", `Wavefront);
             ("critical-path", `Critical_path);
           ])
        `Auto
    & info [ "schedule" ] ~docv:"SCHED"
        ~doc:
          "How ready compiles are ordered.  $(b,wavefront) dispatches in \
           build order as dependencies complete.  $(b,critical-path) \
           starts the units with the longest downstream chains first — \
           per-unit durations estimated from the profile store's rolling \
           averages.  Under both, a unit starts only once every \
           dependency finished.  $(b,auto) (the default) picks \
           $(b,critical-path) once the profile store has recorded a \
           build, $(b,wavefront) otherwise.  Bin files, diagnostics and \
           failure partitions are byte-identical under every schedule.")

let jobs_arg =
  Arg.(
    value
    & opt int (Sched.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of worker domains compiling independent units \
           concurrently (default: the machine's recommended domain \
           count).  $(docv) <= 1 builds serially; the bin files are \
           byte-identical either way.")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Compile every unit in one of $(docv) supervised child \
           $(i,processes) instead of in-process domains (overrides \
           $(b,--jobs)).  A compiler crash or hang then costs that unit \
           alone: crashed units are retried on a fresh worker and \
           quarantined as $(b,E0701) after repeated crashes, hung units \
           are killed at $(b,--worker-timeout) and failed as \
           $(b,E0702).  Bin files are byte-identical to an in-process \
           build.  0 (the default) disables worker processes.")

let worker_timeout_arg =
  Arg.(
    value & opt float 30.
    & info [ "worker-timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget per unit compile under $(b,--workers); a \
           child exceeding it is killed and the unit fails with \
           $(b,E0702) (default 30s).")

let remote_arg =
  Arg.(
    value & opt_all string []
    & info [ "remote" ] ~docv:"ADDR"
        ~doc:
          "Dispatch compiles to the remote executor at $(docv) \
           ($(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare socket path; \
           repeatable — the fleet load-balances across every executor, \
           overriding $(b,--workers) and $(b,--jobs)).  Jobs carry \
           per-deadline retries and hedged re-dispatch; an executor that \
           keeps failing is quarantined, and when every executor is gone \
           the build degrades to local compiles with a warning — \
           byte-identical output, never a lost build.")

let remote_cache_arg =
  Arg.(
    value & opt (some string) None
    & info [ "remote-cache" ] ~docv:"ADDR"
        ~doc:
          "Read compiled units through the shared cache service at \
           $(docv) (see $(b,irm serve-cache)), with the local cache \
           (under $(b,--cache)) in front.  An unreachable service \
           degrades to local-only operation with a warning.")

let remote_timeout_arg =
  Arg.(
    value & opt float 30.
    & info [ "remote-timeout" ] ~docv:"SEC"
        ~doc:
          "Network deadline per dispatched compile under $(b,--remote); \
           an unanswered job is re-dispatched to another executor \
           (default 30s).")

let no_remote_fallback_arg =
  Arg.(
    value & flag
    & info [ "no-remote-fallback" ]
        ~doc:
          "Fail units with $(b,E0703)/$(b,E0704) instead of compiling \
           them locally when every remote executor is unreachable — for \
           builds that must not degrade silently.")

let cache_flag_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Reuse compiled units from the content-addressed unit cache \
           (keyed by source, import interface pids and compiler \
           version) and store every fresh compile into it.")

let cache_dir_arg =
  Arg.(
    value & opt string Cache.default_dir
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Cache directory, relative to the project root.")

let cache_budget_arg =
  Arg.(
    value
    & opt int (Cache.default_budget / (1024 * 1024))
    & info [ "cache-budget" ] ~docv:"MIB"
        ~doc:
          "Cache size budget in MiB; least-recently-used units are \
           evicted beyond it.")

let profile_dir_arg =
  Arg.(
    value & opt string Obs.Profile.default_dir
    & info [ "profile-dir" ] ~docv:"DIR"
        ~doc:"Profile store directory, relative to the project root.")

let no_profile_arg =
  Arg.(
    value & flag
    & info [ "no-profile" ]
        ~doc:
          "Do not record this build into the persistent profile store \
           (and forgo eviction detection, $(b,irm explain) and \
           $(b,irm profile) data for it).")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"OUT"
        ~doc:
          "Write a Chrome trace_event JSON file of the build's phase \
           spans to $(docv) (open in chrome://tracing or Perfetto).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the per-unit build report and the metric counters.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")

let fault_seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Inject deterministic file-system faults from the plan seeded \
           by $(docv) (crash-safety testing).  A simulated crash exits \
           with code 3, leaving a safe on-disk state; rerun without this \
           flag to recover.")

let fault_ops_arg =
  Arg.(
    value & opt int 32
    & info [ "fault-ops" ] ~docv:"N"
        ~doc:
          "Spread the injection points of $(b,--fault-seed) over the \
           first $(docv) operations per class (default 32).")

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "k"; "keep-going" ]
        ~doc:
          "Do not stop at the first broken unit: collect structured \
           diagnostics per unit, skip only the units downstream of a \
           failure (poison propagation), and still build every unit not \
           reachable from one.  The failed/skipped partitions and the \
           diagnostics are deterministic — identical for any \
           $(b,--jobs).")

let werror_arg =
  Arg.(
    value & flag
    & info [ "warn-error" ]
        ~doc:
          "Promote warnings (nonexhaustive match, redundant rule, …) to \
           errors.")

let max_errors_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-errors" ] ~docv:"N"
        ~doc:
          "Stop collecting after $(docv) errors per unit (default \
           64).")

let error_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "error-format" ] ~docv:"FMT"
        ~doc:
          "How to report diagnostics: $(b,text) (human-readable, with \
           source excerpts, on stderr) or $(b,json) (one machine-readable \
           envelope on stdout, schema $(i,schemas/diagnostics.schema.json)).")

let daemon_flag_arg =
  Arg.(
    value & flag
    & info [ "daemon" ]
        ~doc:
          "Route the request to a running compile server (started with \
           $(b,irm daemon start)), reusing its warm build state; falls \
           back to in-process execution when no daemon is listening.  \
           In-process features ($(b,--workers), $(b,--fault-seed), \
           $(b,--trace), $(b,--stats)) are not routed.")

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on reported diagnostics (compile, link or runtime errors).";
    Cmd.Exit.info 2 ~doc:"on command-line usage errors.";
    Cmd.Exit.info 3
      ~doc:
        "on a simulated crash under $(b,--fault-seed); the on-disk state \
         is safe and a rerun converges.";
    Cmd.Exit.info 4
      ~doc:
        "when the worker pool under $(b,--workers) died entirely \
         (workers kept dying before doing any work) and the build was \
         aborted.";
    Cmd.Exit.info 130
      ~doc:
        "when interrupted by SIGINT or SIGTERM; the partial build is \
         recorded in the profile store and a rerun converges.";
  ]

let build_cmd =
  Cmd.v
    (Cmd.info "build" ~exits
       ~doc:"bring every unit of the group up to date")
    Term.(
      const build_cmd_impl $ dir_arg $ group_arg $ policy_arg $ schedule_arg
      $ jobs_arg
      $ workers_arg $ worker_timeout_arg $ remote_arg $ remote_cache_arg
      $ remote_timeout_arg $ no_remote_fallback_arg
      $ cache_flag_arg $ cache_dir_arg
      $ cache_budget_arg $ no_profile_arg $ profile_dir_arg $ trace_arg
      $ stats_arg $ fault_seed_arg $ fault_ops_arg $ keep_going_arg
      $ werror_arg $ max_errors_arg $ error_format_arg $ daemon_flag_arg)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:"build, then execute all units in dependency order")
    Term.(
      const run_cmd_impl $ dir_arg $ group_arg $ policy_arg $ schedule_arg
      $ jobs_arg
      $ workers_arg $ worker_timeout_arg $ remote_arg $ remote_cache_arg
      $ remote_timeout_arg $ no_remote_fallback_arg
      $ cache_flag_arg $ cache_dir_arg
      $ cache_budget_arg $ no_profile_arg $ profile_dir_arg $ trace_arg
      $ stats_arg $ fault_seed_arg $ fault_ops_arg $ keep_going_arg
      $ werror_arg $ max_errors_arg $ error_format_arg $ daemon_flag_arg)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~exits
       ~doc:"build, then print the per-unit report and metric counters")
    Term.(
      const stats_cmd_impl $ dir_arg $ group_arg $ policy_arg $ schedule_arg
      $ jobs_arg
      $ workers_arg $ worker_timeout_arg $ remote_arg $ remote_cache_arg
      $ remote_timeout_arg $ no_remote_fallback_arg
      $ cache_flag_arg $ cache_dir_arg
      $ cache_budget_arg $ no_profile_arg $ profile_dir_arg $ trace_arg
      $ json_arg $ keep_going_arg $ werror_arg $ max_errors_arg)

let cache_action_arg =
  let actions = [ ("stats", `Stats); ("gc", `Gc); ("clear", `Clear) ] in
  Arg.(
    required
    & pos 0 (some (enum actions)) None
    & info [] ~docv:"ACTION"
        ~doc:
          "$(b,stats) prints occupancy and counters, $(b,gc) re-enforces \
           the size budget, $(b,clear) drops every entry.")

let cache_cmd =
  Cmd.v
    (Cmd.info "cache" ~exits
       ~doc:"inspect or maintain the content-addressed unit cache")
    Term.(
      const cache_cmd_impl $ dir_arg $ cache_dir_arg $ cache_budget_arg
      $ cache_action_arg)

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text.")

let deps_cmd =
  Cmd.v
    (Cmd.info "deps" ~exits ~doc:"print the computed dependency graph")
    Term.(const deps_cmd_impl $ dir_arg $ group_arg $ dot_arg)

let recover_cmd =
  Cmd.v
    (Cmd.info "recover" ~exits
       ~doc:
         "quarantine damaged bin files and sweep interrupted-commit \
          staging files, so the next build recompiles exactly what was \
          lost")
    Term.(const recover_cmd_impl $ dir_arg $ group_arg)

let unit_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"UNIT"
        ~doc:"The unit's source path, as listed in the group file.")

let top_arg =
  Arg.(
    value & opt int 5
    & info [ "top" ] ~docv:"N"
        ~doc:"How many of the slowest compiled units to list (default 5).")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~exits
       ~doc:
         "explain a unit's last build: why it was recompiled (with the \
          culprit imports), what it poisoned downstream, its phase \
          timings and its compile-time history")
    Term.(
      const explain_cmd_impl $ dir_arg $ profile_dir_arg $ unit_arg $ json_arg
      $ daemon_flag_arg)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:
         "report on the last recorded build: critical path, slowest \
          units, scheduler efficiency, and the rebuild-cause breakdown \
          ($(b,--json) emits the smlsep-profile/1 envelope)")
    Term.(
      const profile_cmd_impl $ dir_arg $ profile_dir_arg $ json_arg $ top_arg
      $ daemon_flag_arg)

let state_dir_arg =
  Arg.(
    value
    & opt string Daemon.Protocol.default_state_dir
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Daemon state directory (socket, pid file, log), relative to \
           the project root.  Kept short by default: Unix socket paths \
           are limited to roughly 100 bytes.")

let watch_arg =
  Arg.(
    value & flag
    & info [ "watch" ]
        ~doc:
          "Rebuild the dependent cone of changed files eagerly as the \
           polling watcher sees them, instead of leaving them to \
           invalidate the next requested build.")

let poll_arg =
  Arg.(
    value & opt float 0.5
    & info [ "poll" ] ~docv:"SEC"
        ~doc:
          "Watcher sweep interval: tracked files are re-checked by mtime \
           and content digest every $(docv) seconds (default 0.5).")

let client_timeout_arg =
  Arg.(
    value & opt float 30.
    & info [ "client-timeout" ] ~docv:"SEC"
        ~doc:
          "Drop a client stuck mid-frame (or not draining its response) \
           after $(docv) seconds of silence (default 30).")

let foreground_arg =
  Arg.(
    value & flag
    & info [ "foreground" ]
        ~doc:
          "Serve in the foreground instead of daemonizing: log to stderr, \
           stop on Ctrl-C.")

let daemon_groups_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"GROUP"
        ~doc:
          "Group files to build at startup and keep under the file \
           watcher.  Later $(b,build --daemon) requests add their groups \
           too.")

let daemon_start_cmd =
  Cmd.v
    (Cmd.info "start" ~exits
       ~doc:
         "start the compile server for this directory: warm build state \
          behind the Unix socket $(i,.irm-daemon/sock).  Each group also \
          keeps a live epoch: $(b,run --daemon) reconciles it with the \
          build (a clean restart of every unit when any bin changed) and \
          replays its output.  Inspect with $(b,irm daemon epochs), drive \
          by hand with $(b,irm swap).")
    Term.(
      const daemon_start_impl $ dir_arg $ state_dir_arg $ daemon_groups_arg
      $ watch_arg $ poll_arg $ client_timeout_arg $ cache_flag_arg
      $ policy_arg $ jobs_arg $ foreground_arg)

let daemon_stop_cmd =
  Cmd.v
    (Cmd.info "stop" ~exits
       ~doc:
         "ask the daemon to shut down cleanly (falls back to SIGTERM via \
          the pid file when the socket does not answer)")
    Term.(const daemon_stop_impl $ dir_arg $ state_dir_arg)

let daemon_status_cmd =
  Cmd.v
    (Cmd.info "status" ~exits
       ~doc:
         "report the daemon's uptime, served requests, connected clients, \
          epochs and watched groups ($(b,--json) emits the smlsep-daemon/4 \
          status envelope, schema $(i,schemas/daemon.schema.json)).  A \
          SIGKILL'd daemon reports as stale and its leftover socket/pid \
          files are swept.")
    Term.(const daemon_status_impl $ dir_arg $ state_dir_arg $ json_arg)

let epochs_group_arg =
  Arg.(
    value & opt string ""
    & info [ "group" ] ~docv:"GROUP"
        ~doc:
          "Group whose epochs to inspect (default: the daemon's sole live \
           group).")

let daemon_epochs_cmd =
  Cmd.v
    (Cmd.info "epochs" ~exits
       ~doc:
         "inspect a group's live epochs in the daemon: which epoch \
          serves, which retired and why each was built, and the swap \
          counters")
    Term.(
      const daemon_epochs_impl $ dir_arg $ state_dir_arg $ epochs_group_arg
      $ json_arg)

let daemon_cmd =
  Cmd.group
    (Cmd.info "daemon" ~exits
       ~doc:
         "the compile server: a build daemon holding warm sessions, cache \
          index and profile store behind a Unix socket")
    [ daemon_start_cmd; daemon_stop_cmd; daemon_status_cmd; daemon_epochs_cmd ]

let swap_unit_arg =
  Arg.(
    value & pos 0 string ""
    & info [] ~docv:"UNIT"
        ~doc:
          "Source file to swap (must belong to the group; omit to swap \
           whatever the rebuild produced).")

let swap_group_arg =
  Arg.(
    value & opt string ""
    & info [ "group" ] ~docv:"GROUP"
        ~doc:
          "Group to rebuild and swap (default: the daemon's sole live \
           group).")

let swap_cmd =
  Cmd.v
    (Cmd.info "swap" ~exits
       ~doc:
         "rebuild a unit's group in the daemon and swap the result into \
          its live epoch: when any bin changed, every unit re-executes in \
          link order into a new epoch, exactly a clean restart; any \
          failure rolls back to the prior epoch ($(b,E0801) \
          seal-violation, $(b,E0601) unsatisfied import, or the program \
          raising)")
    Term.(const swap_impl $ dir_arg $ state_dir_arg $ swap_group_arg
          $ swap_unit_arg)

let listen_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Address to serve on: $(b,unix:PATH), $(b,tcp:HOST:PORT) \
           (port 0 picks an ephemeral port, printed at startup), or a \
           bare socket path.")

let exec_jobs_arg =
  Arg.(
    value & opt int (Sched.default_jobs ())
    & info [ "exec-jobs" ] ~docv:"N"
        ~doc:
          "Size of the executor's supervised worker-process pool \
           (default: the machine's recommended domain count).  0 \
           compiles inline in the reactor — single-job, for tests.")

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Independent cache shards, split by key prefix: each has its \
           own directory, journal and LRU budget (default 4).")

let serve_exec_cmd =
  Cmd.v
    (Cmd.info "serve-exec" ~exits
       ~doc:
         "serve a remote compile executor: a supervised worker pool \
          behind a socket, dispatching jobs from $(b,build --remote) \
          clients (crashes and hangs surface as $(b,E0701)/$(b,E0702) \
          exactly as under $(b,--workers))")
    Term.(
      const serve_exec_impl $ listen_arg $ exec_jobs_arg $ worker_timeout_arg)

let serve_cache_cmd =
  Cmd.v
    (Cmd.info "serve-cache" ~exits
       ~doc:
         "serve the shared unit-cache: a sharded content-addressed \
          store behind a socket, read and fed by $(b,build \
          --remote-cache) clients on any machine (objects commit before \
          their index records, so an acknowledged put is readable and \
          survives the service process crashing; nothing calls fsync, so \
          an OS crash or power loss may still lose it)")
    Term.(
      const serve_cache_impl $ dir_arg $ listen_arg $ shards_arg
      $ cache_budget_arg $ cache_dir_arg)

let cmd =
  Cmd.group
    (Cmd.info "irm" ~exits
       ~doc:"incremental recompilation manager for MiniSML")
    [
      build_cmd;
      run_cmd;
      stats_cmd;
      deps_cmd;
      recover_cmd;
      cache_cmd;
      explain_cmd;
      profile_cmd;
      swap_cmd;
      daemon_cmd;
      serve_exec_cmd;
      serve_cache_cmd;
    ]

(* standardized exit codes (documented under EXIT STATUS in --help):
   0 success, 1 diagnostics, 2 usage errors, 3 simulated crash,
   4 worker pool death, 130 interrupted.
   cmdliner reports parse errors as Exit.cli_error (124); fold them
   into the documented usage code. *)
let () =
  let code = Cmd.eval' ~term_err:2 cmd in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
