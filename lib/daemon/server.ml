module Frame = Pickle.Frame
module Netsrv = Remote.Netsrv
module Driver = Irm.Driver
module Diag = Support.Diag
module Relink = Link.Relink

exception Already_running of string

type config = {
  d_dir : string;
  d_state_dir : string;
  d_groups : string list;
  d_watch : bool;
  d_poll_s : float;
  d_client_timeout_s : float;
  d_cache : bool;
  d_policy : string;
  d_jobs : int;
  d_log : string -> unit;
}

let default_config ~dir =
  {
    d_dir = dir;
    d_state_dir = Protocol.default_state_dir;
    d_groups = [];
    d_watch = false;
    d_poll_s = 0.5;
    d_client_timeout_s = 30.;
    d_cache = false;
    d_policy = "cutoff";
    d_jobs = 1;
    d_log = prerr_endline;
  }

let m_requests = Obs.Metrics.counter "daemon.requests"
let m_builds = Obs.Metrics.counter "daemon.builds"
let m_sweeps = Obs.Metrics.counter "daemon.watch_sweeps"
let m_dirty = Obs.Metrics.counter "daemon.watch_dirty"

(* warm per-group state: the manager (and its compilation session)
   lives as long as the daemon does *)
type group_state = {
  g_group : string;
  g_mgr : Driver.t;
  g_watch : Watch.t;
  mutable g_sources : string list;
  mutable g_dirty : string list;  (** dirty since the last build (lazy mode) *)
  mutable g_builds : int;
  mutable g_opts : Protocol.build_opts;  (** what watch rebuilds replay *)
  g_live : Relink.t;  (** the live epochs, built by the first [Run] or [Swap] *)
}

type t = {
  cfg : config;
  fs : Vfs.fs;
  srv : Netsrv.t;
  pid_path : string;
  profile : Obs.Profile.t;
  mutable cache : Cache.t option;
  groups : (string, group_state) Hashtbl.t;
  mutable stopping : bool;  (** shutdown answered; draining output *)
  mutable interrupted : exn option;  (** a signal, re-raised by [step] *)
  mutable served : int;
  mutable sweeps : int;
  mutable dirty_total : int;
  started : float;
  mutable next_sweep : float;
}

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let default_opts cfg group =
  {
    Protocol.b_group = group;
    b_policy = cfg.d_policy;
    b_jobs = cfg.d_jobs;
    b_cache = cfg.d_cache;
    b_keep_going = false;
    b_werror = false;
    b_max_errors = None;
    b_error_json = false;
    b_schedule = "wavefront";
  }

let group_state t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None ->
    let g =
      {
        g_group = group;
        g_mgr = Driver.create t.fs;
        g_watch = Watch.create t.fs;
        g_sources = [];
        g_dirty = [];
        g_builds = 0;
        g_opts = default_opts t.cfg group;
        g_live = Relink.create ();
      }
    in
    Hashtbl.replace t.groups group g;
    g

let policy_of = function
  | "cutoff" -> Some Driver.Cutoff
  | "timestamp" -> Some Driver.Timestamp
  | "selective" -> Some Driver.Selective
  | _ -> None

let backend_of jobs = if jobs <= 1 then Driver.Serial else Driver.Parallel jobs

(* [auto] resolves against the daemon's warm profile store, mirroring
   the CLI's in-process default *)
let schedule_of t = function
  | "wavefront" -> Some Driver.Wavefront
  | "critical-path" -> Some Driver.Critical_path
  | "auto" ->
    Some
      (if Obs.Profile.builds t.profile = [] then Driver.Wavefront
       else Driver.Critical_path)
  | _ -> None

let cache_of t enabled =
  if not enabled then None
  else
    match t.cache with
    | Some _ as c -> c
    | None ->
      let c =
        Cache.create ~dir:Cache.default_dir ~budget_bytes:Cache.default_budget
          t.fs
      in
      t.cache <- Some c;
      Some c

(* a one-shot `irm build` may hold the advisory lock; wait briefly for
   it to finish before giving up with its diagnostic *)
let acquire_lock t =
  let rec go n =
    match Lock.acquire ~dir:t.cfg.d_dir with
    | lock -> lock
    | exception Lock.Held _ when n > 0 ->
      Unix.sleepf 0.05;
      go (n - 1)
  in
  go 20

(* why a swap rolled back, for a [Swap] response and the log *)
let swap_failure = function
  | Diag.Error d -> String.trim (Diag.to_string d)
  | Diag.Errors ds ->
    String.concat "; " (List.map (fun d -> String.trim (Diag.to_string d)) ds)
  | Relink.Swap_aborted reason ->
    Printf.sprintf "swap aborted: %s — rolled back to the prior epoch" reason
  | Relink.Program_failed { cause = Relink.Raised packet; _ } ->
    Printf.sprintf
      "swap aborted: a unit raised %s during relink — rolled back to the \
       prior epoch"
      (Dynamics.Value.to_string packet)
  | Relink.Program_failed { cause = Relink.Exited code; _ } ->
    Printf.sprintf
      "swap aborted: a unit called exit %d during relink — rolled back to \
       the prior epoch"
      code
  | exn -> Printexc.to_string exn

(* every handler returns the response plus the diag-frame payloads to
   stream ahead of it *)
let ok out = ({ Protocol.r_code = 0; r_out = out; r_err = "" }, [])

(* the same exception → (stderr, exit code) mapping the CLI's [guarded]
   applies, rendered into a response instead of printed.
   [Driver.Interrupted] deliberately passes through: it is the daemon
   being told to die, not a request failing. *)
let guard ~json f =
  let plain ?(code = 1) err = ({ Protocol.r_code = code; r_out = ""; r_err = err }, []) in
  let diags ds =
    if json then
      ( { Protocol.r_code = 1; r_out = ""; r_err = "" },
        [
          Obs.Json.to_string (Irm.Introspect.diagnostics_envelope ds) ^ "\n";
        ] )
    else
      plain
        (String.concat ""
           (List.map (fun d -> Diag.to_string d ^ "\n") ds))
  in
  match Diag.guard_all f with
  | Ok resp -> resp
  | Error ds -> diags ds
  | exception Lock.Held { lock_path; holder } ->
    plain
      (Printf.sprintf
         "the build lock %s is held by pid %s — another build is running in \
          this directory; retry when it finishes\n"
         lock_path holder)
  | exception Pickle.Buf.Corrupt msg ->
    diags [ Diag.make Diag.Pickle Support.Loc.dummy msg ]
  | exception Vfs.Crash { crash_op; crash_path } ->
    plain ~code:3
      (Printf.sprintf
         "simulated crash during %s of %s — on-disk state is safe\n" crash_op
         crash_path)
  | exception Vfs.Fault { fault_op; fault_path; _ } ->
    plain
      (Printf.sprintf "injected fault persisted: %s of %s failed\n" fault_op
         fault_path)
  | exception Sys_error msg -> plain (msg ^ "\n")
  | exception (Relink.Swap_aborted _ as exn) -> plain (swap_failure exn ^ "\n")
  | exception Remote.Pool.Pool_down msg ->
    plain ~code:4
      (Printf.sprintf
         "build aborted: the compile worker pool died entirely (%s)\n" msg)

(* ------------------------------------------------------------------ *)
(* Live epochs                                                         *)
(* ------------------------------------------------------------------ *)

(* what changed is the epoch's cause, listed by [daemon epochs] *)
let swap_desc (o : Relink.outcome) =
  match o.o_kind with
  | Relink.Null ->
    Printf.sprintf "null swap: epoch %d unchanged, nothing relinked" o.o_epoch
  | Relink.Epoch_bump ->
    Printf.sprintf "epoch swap: now serving epoch %d" o.o_epoch

(* reconcile the group's live epoch with its last build: a null swap,
   or a clean restart of every unit into a new epoch.  A failure is
   logged and re-raised; the prior epoch keeps serving. *)
let reconcile ?abort_check t g =
  match
    Relink.swap ?abort_check g.g_live ~units:(Driver.link_snapshot g.g_mgr)
  with
  | { Relink.o_kind = Relink.Null; _ } as o -> o
  | o ->
    t.cfg.d_log (Printf.sprintf "daemon: %s %s" g.g_group (swap_desc o));
    o
  | exception exn ->
    t.cfg.d_log
      (Printf.sprintf "daemon: %s swap failed: %s" g.g_group (swap_failure exn));
    raise exn

(* build [opts]'s group under the lock; [on_built g stats diag frames]
   makes the response.  Building never executes user code. *)
let serve_build t opts ~on_built =
  let open Protocol in
  match (policy_of opts.b_policy, schedule_of t opts.b_schedule) with
  | None, _ ->
    ( { r_code = 2; r_out = ""; r_err = Printf.sprintf "unknown policy %S\n" opts.b_policy },
      [] )
  | _, None ->
    ( {
        r_code = 2;
        r_out = "";
        r_err = Printf.sprintf "unknown schedule %S\n" opts.b_schedule;
      },
      [] )
  | Some policy, Some schedule ->
    guard ~json:opts.b_error_json (fun () ->
        let g = group_state t opts.b_group in
        let sources = Irm.Group.load t.fs opts.b_group in
        if sources = [] then
          Diag.error Diag.Manager Support.Loc.dummy
            "group file %s lists no sources" opts.b_group;
        let lock = acquire_lock t in
        Fun.protect ~finally:(fun () -> Lock.release lock) @@ fun () ->
        Obs.Metrics.incr m_builds;
        let stats =
          Driver.build
            ~backend:(backend_of opts.b_jobs)
            ~schedule
            ?cache:(Option.map Cache.ops (cache_of t opts.b_cache)) ~profile:t.profile
            ~keep_going:opts.b_keep_going ~werror:opts.b_werror
            ?max_errors:opts.b_max_errors g.g_mgr ~policy ~sources
        in
        g.g_sources <- sources;
        g.g_builds <- g.g_builds + 1;
        g.g_dirty <- [];
        g.g_opts <- opts;
        Watch.track g.g_watch (opts.b_group :: sources);
        let diag =
          Irm.Introspect.report_diagnostics ~source_of:t.fs.Vfs.fs_read
            ~json:opts.b_error_json stats
        in
        on_built g stats diag (if opts.b_error_json then [ diag.out ] else []))

let build_response t opts =
  serve_build t opts ~on_built:(fun g stats diag frames ->
      let listing =
        if opts.Protocol.b_error_json then ""
        else Irm.Introspect.build_listing g.g_mgr stats
      in
      ( { Protocol.r_code = diag.code; r_out = listing; r_err = diag.err },
        frames ))

(* `irm run` prints no listing: diagnostics, or the live epoch's output
   — reconciled first, so it is what a clean restart prints.  A unit
   raising or calling [exit] answers like a one-shot run: the output
   before the failure, then the exception and exit code. *)
let run_response ?abort_check t opts =
  serve_build t opts ~on_built:(fun g _ diag frames ->
      let open Protocol in
      if diag.code <> 0 then
        ({ r_code = diag.code; r_out = ""; r_err = diag.err }, frames)
      else
        match reconcile ?abort_check t g with
        | _ ->
          let buf = Buffer.create 256 in
          Relink.replay g.g_live ~output:(Buffer.add_string buf);
          ({ r_code = 0; r_out = Buffer.contents buf; r_err = "" }, frames)
        | exception Relink.Program_failed { output; cause } ->
          let code, err =
            match cause with
            | Relink.Raised packet ->
              ( 1,
                Printf.sprintf "uncaught exception: %s\n"
                  (Dynamics.Value.to_string packet) )
            | Relink.Exited code -> (code, "")
          in
          ({ r_code = code; r_out = output; r_err = err }, frames))

(* the per-group live-epoch fields of the status envelope: the serving
   epoch ([null] before the first [Run] or [Swap]), how many epoch
   records are retained, and the swap counters *)
let group_swap_json g =
  let open Obs.Json in
  let c = Relink.counters g.g_live in
  [
    ( "epoch",
      if Relink.live g.g_live then Int (Relink.current_epoch g.g_live) else Null
    );
    ("epochs", Int (List.length (Relink.epochs g.g_live)));
    ( "swaps",
      Obj
        [
          ("null", Int c.Relink.c_null);
          ("epoch", Int c.Relink.c_epoch);
          ("rollbacks", Int c.Relink.c_rollbacks);
        ] );
  ]

let status_json t =
  let open Obs.Json in
  let tracked =
    Hashtbl.fold
      (fun _ g acc -> acc + List.length (Watch.tracked g.g_watch))
      t.groups 0
  in
  let groups =
    Hashtbl.fold
      (fun _ g acc ->
        Obj
          ([
             ("group", String g.g_group);
             ("units", Int (List.length g.g_sources));
             ("builds", Int g.g_builds);
             ("dirty", List (List.map (fun f -> String f) g.g_dirty));
           ]
          @ group_swap_json g)
        :: acc)
      t.groups []
  in
  Obj
    [
      ("version", String Protocol.version);
      ("pid", Int (Unix.getpid ()));
      ("uptime_s", Float (Unix.gettimeofday () -. t.started));
      ("served", Int t.served);
      ("clients", Int (Netsrv.connections t.srv));
      ( "watch",
        Obj
          [
            ("eager", Bool t.cfg.d_watch);
            ("poll_s", Float t.cfg.d_poll_s);
            ("tracked", Int tracked);
            ("sweeps", Int t.sweeps);
            ("dirty_total", Int t.dirty_total);
          ] );
      ("groups", List groups);
    ]

(* ------------------------------------------------------------------ *)
(* Swap and epoch requests                                             *)
(* ------------------------------------------------------------------ *)

(* [Swap]/[Epochs] with an empty group name resolve against the
   daemon's live groups when that is unambiguous *)
let resolve_group t group =
  if group <> "" then Ok group
  else
    match Hashtbl.fold (fun k _ acc -> k :: acc) t.groups [] with
    | [ g ] -> Ok g
    | [] -> Error "no group is live in this daemon; name one explicitly\n"
    | gs ->
      Error
        (Printf.sprintf "multiple groups are live (%s); name one explicitly\n"
           (String.concat ", " (List.sort String.compare gs)))

let epochs_json g =
  let open Obs.Json in
  let history =
    List.map
      (fun (e : Relink.epoch_info) ->
        Obj
          [
            ("id", Int e.Relink.ei_id);
            ("state", String e.ei_state);
            ("units", Int e.ei_units);
            ("cause", String e.ei_cause);
          ])
      (Relink.epochs g.g_live)
  in
  Obj
    ([ ("version", String Protocol.version); ("group", String g.g_group) ]
    @ group_swap_json g
    @ [ ("history", List history) ])

let render_epochs g =
  if not (Relink.live g.g_live) then
    Printf.sprintf "group %s: no live epochs (no run or swap yet)\n" g.g_group
  else
    let c = Relink.counters g.g_live in
    String.concat ""
      (Printf.sprintf
         "group %s: serving epoch %d — swaps: %d null / %d epoch / %d \
          rollbacks\n"
         g.g_group
         (Relink.current_epoch g.g_live)
         c.Relink.c_null c.Relink.c_epoch c.Relink.c_rollbacks
      :: List.map
           (fun (e : Relink.epoch_info) ->
             Printf.sprintf "  epoch %-3d %-8s units %-3d %s\n" e.Relink.ei_id
               e.ei_state e.ei_units e.ei_cause)
           (Relink.epochs g.g_live))

let serve_epochs t ~group ~json =
  match resolve_group t group with
  | Error msg -> ({ Protocol.r_code = 2; r_out = ""; r_err = msg }, [])
  | Ok group ->
    let g = group_state t group in
    if json then ok (Obs.Json.to_canonical_string (epochs_json g) ^ "\n")
    else ok (render_epochs g)

(* [Swap] builds and reconciles, reporting the outcome *)
let serve_swap ?abort_check t ~group ~unit_ =
  match resolve_group t group with
  | Error msg -> ({ Protocol.r_code = 2; r_out = ""; r_err = msg }, [])
  | Ok group ->
    guard ~json:false (fun () ->
        let sources = Irm.Group.load t.fs group in
        if unit_ <> "" && not (List.mem unit_ sources) then
          Diag.error Diag.Manager Support.Loc.dummy
            "unit %s is not in group %s" unit_ group;
        let g = group_state t group in
        let opts = { g.g_opts with Protocol.b_group = group } in
        let built = build_response t opts in
        if (fst built).Protocol.r_code <> 0 then built
        else
          let r_code, r_out, r_err =
            match reconcile ?abort_check t g with
            | o ->
              let prefix = if unit_ = "" then "" else unit_ ^ ": " in
              (0, prefix ^ swap_desc o ^ "\n", "")
            | exception
                (( Diag.Error _ | Diag.Errors _ | Relink.Swap_aborted _
                 | Relink.Program_failed _ ) as exn) ->
              (1, "", swap_failure exn ^ "\n")
          in
          ({ Protocol.r_code; r_out; r_err }, snd built))

let serve_request ?abort_check t req =
  t.served <- t.served + 1;
  Obs.Metrics.incr m_requests;
  match req with
  | Protocol.Build opts -> build_response t opts
  | Protocol.Run opts -> run_response ?abort_check t opts
  | Protocol.Explain { e_unit; e_json } ->
    guard ~json:false (fun () ->
        let r =
          Irm.Introspect.explain t.profile ~unit_name:e_unit ~json:e_json
        in
        ({ Protocol.r_code = r.code; r_out = r.out; r_err = r.err }, []))
  | Protocol.Profile { p_json; p_top } ->
    guard ~json:false (fun () ->
        let r =
          Irm.Introspect.profile_report t.profile ~json:p_json ~top:p_top
        in
        ({ Protocol.r_code = r.code; r_out = r.out; r_err = r.err }, []))
  | Protocol.Status ->
    ok (Obs.Json.to_canonical_string (status_json t) ^ "\n")
  | Protocol.Shutdown ->
    t.stopping <- true;
    ok ""
  | Protocol.Swap { s_group; s_unit } ->
    serve_swap ?abort_check t ~group:s_group ~unit_:s_unit
  | Protocol.Epochs { ep_group; ep_json } ->
    serve_epochs t ~group:ep_group ~json:ep_json

(* ------------------------------------------------------------------ *)
(* Frames from greeted clients                                         *)
(* ------------------------------------------------------------------ *)

(* a bad request never raises into the reactor: Netsrv would close the
   connection, and an undecodable request must keep it *)
let on_msg t ~conn (msg : Frame.msg) =
  let send kind payload = Netsrv.send t.srv ~conn ~kind ~id:msg.f_id ~payload in
  if msg.f_kind <> Protocol.k_request then
    send Protocol.k_error (Printf.sprintf "unexpected frame kind %d" msg.f_kind)
  else
    match Protocol.decode_request msg.f_payload with
    | exception Pickle.Buf.Corrupt reason ->
      send Protocol.k_error ("undecodable request: " ^ reason)
    | req ->
      (* a requesting client hanging up aborts a pending swap *)
      let abort_check () =
        if Netsrv.conn_alive t.srv ~conn then None
        else Some "client disconnected mid-swap"
      in
      let resp, diags =
        Obs.Trace.span ~cat:"daemon"
          ~args:[ ("id", msg.f_id) ]
          "daemon.request"
          (fun () -> serve_request ~abort_check t req)
      in
      List.iter (send Protocol.k_diag) diags;
      send Protocol.k_response (Protocol.encode_response resp)

(* ------------------------------------------------------------------ *)
(* Watch sweeps                                                        *)
(* ------------------------------------------------------------------ *)

(* the dependent cone the dirty files invalidate, via the group
   manager's warm dependency scan (parse errors are tolerated: a broken
   source still maps to itself).  The rebuild that follows finds every
   source this scan parsed already in the memo. *)
let dirty_cone t g dirty =
  if List.exists (String.equal g.g_group) dirty then g.g_sources
  else if
    (* a tracked unit was deleted: its exports vanish from the parse,
       so the rebuilt dependency graph can no longer name its
       dependents — invalidate the whole group rather than silently
       under-reporting the deleted unit's cone *)
    List.exists
      (fun f ->
        List.mem f g.g_sources && t.fs.Vfs.fs_read f = None)
      dirty
  then g.g_sources
  else
    match
      Driver.dependency_graph ~keep_going:true g.g_mgr ~sources:g.g_sources
    with
    | graph ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun f ->
          if List.mem f g.g_sources then begin
            Hashtbl.replace seen f ();
            List.iter
              (fun d -> Hashtbl.replace seen d ())
              (Depend.Depgraph.cone graph f)
          end)
        dirty;
      List.filter (Hashtbl.mem seen) g.g_sources
    | exception _ -> dirty

let sweep t =
  t.next_sweep <- Unix.gettimeofday () +. t.cfg.d_poll_s;
  Hashtbl.iter
    (fun _ g ->
      if Watch.tracked g.g_watch <> [] then begin
        t.sweeps <- t.sweeps + 1;
        Obs.Metrics.incr m_sweeps;
        let dirty = Watch.sweep g.g_watch in
        if dirty <> [] then begin
          Obs.Metrics.add m_dirty (List.length dirty);
          t.dirty_total <- t.dirty_total + List.length dirty;
          let cone = dirty_cone t g dirty in
          t.cfg.d_log
            (Printf.sprintf "daemon: %s dirty [%s] -> cone [%s]" g.g_group
               (String.concat ", " dirty)
               (String.concat ", " cone));
          if t.cfg.d_watch then begin
            let resp, _ = build_response t g.g_opts in
            t.cfg.d_log
              (Printf.sprintf "daemon: watch rebuild of %s (exit %d)\n%s%s"
                 g.g_group resp.Protocol.r_code resp.Protocol.r_out
                 resp.Protocol.r_err)
          end
          else
            g.g_dirty <-
              List.sort_uniq String.compare (g.g_dirty @ cone)
        end
      end)
    t.groups

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let mkdir_p path =
  try Unix.mkdir path 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (Unix.ENOENT, _, _) ->
    let parent = Filename.dirname path in
    if parent <> path then begin
      (try Unix.mkdir parent 0o755 with Unix.Unix_error _ -> ());
      try Unix.mkdir path 0o755 with Unix.Unix_error _ -> ()
    end

let create cfg =
  let sock_path =
    Protocol.socket_path ~dir:cfg.d_dir ~state_dir:cfg.d_state_dir
  in
  let pid_path = Protocol.pid_path ~dir:cfg.d_dir ~state_dir:cfg.d_state_dir in
  mkdir_p (Filename.dirname sock_path);
  (* a live daemon on the socket wins; a stale socket file is swept *)
  if Sys.file_exists sock_path then begin
    match Client.connect ~state_dir:cfg.d_state_dir ~dir:cfg.d_dir () with
    | Some c ->
      Client.close c;
      raise (Already_running sock_path)
    | None -> ()
    | exception _ -> raise (Already_running sock_path)
  end;
  let srv =
    Netsrv.create ~client_timeout_s:cfg.d_client_timeout_s
      ~version:Protocol.version (Remote.Transport.Unix_sock sock_path)
  in
  Out_channel.with_open_bin pid_path (fun oc ->
      Printf.fprintf oc "%d\n" (Unix.getpid ()));
  (* bound the trace buffer: the daemon traces across thousands of
     requests, the one-shot CLI does not *)
  Obs.Trace.set_cap 50_000;
  let fs = Vfs.real ~dir:cfg.d_dir in
  let t =
    {
      cfg;
      fs;
      srv;
      pid_path;
      profile = Obs.Profile.load fs;
      cache = None;
      groups = Hashtbl.create 4;
      stopping = false;
      interrupted = None;
      served = 0;
      sweeps = 0;
      dirty_total = 0;
      started = Unix.gettimeofday ();
      next_sweep = Unix.gettimeofday () +. cfg.d_poll_s;
    }
  in
  (* a signal's [Driver.Interrupted] tells the daemon to die: carry it
     past Netsrv's per-connection catch to [step], serving nothing more *)
  Netsrv.set_handler srv (fun ~conn msg ->
      if t.interrupted = None then
        try on_msg t ~conn msg
        with Driver.Interrupted _ as exn -> t.interrupted <- Some exn);
  (* pre-warm: build and track every startup group so the first client
     request already hits warm state *)
  List.iter
    (fun group ->
      let resp, _ = build_response t (default_opts cfg group) in
      cfg.d_log
        (Printf.sprintf "daemon: startup build of %s (exit %d)" group
           resp.Protocol.r_code))
    cfg.d_groups;
  t

let running t = Netsrv.running t.srv

let stop t =
  if running t then begin
    Netsrv.stop t.srv;
    try Unix.unlink t.pid_path with Unix.Unix_error _ -> ()
  end

let step ?(timeout_s = 0.2) t =
  if running t then begin
    let now = Unix.gettimeofday () in
    if now >= t.next_sweep then sweep t;
    Netsrv.step
      ~timeout_s:(Float.max 0. (Float.min timeout_s (t.next_sweep -. now)))
      t.srv;
    Option.iter raise t.interrupted;
    (* the Shutdown answer has left: stop in the same turn *)
    if t.stopping && Netsrv.drained t.srv then stop t
  end

let run t =
  match
    while running t do
      step t
    done
  with
  | () -> stop t
  | exception exn ->
    stop t;
    raise exn
