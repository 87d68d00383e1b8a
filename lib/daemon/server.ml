module Frame = Pickle.Frame
module Netsrv = Remote.Netsrv
module Driver = Irm.Driver

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
  mutable g_run : ((string * string) list * Protocol.response) option;
      (** the last executed [Run]: its {!Driver.link_snapshot} key and
          its response *)
  mutable g_executed : int;  (** [Run]s that executed the program *)
  mutable g_replayed : int;  (** [Run]s answered from [g_run] *)
}

type t = {
  cfg : config;
  fs : Vfs.fs;
  srv : Netsrv.t;
  pid_path : string;
  profile : Obs.Profile.t;
  cache : Cache.t Lazy.t;  (** opened by the first [b_cache] request *)
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
        (* startup and watch builds before any request: a client's
           defaults under the daemon's policy, jobs and cache *)
        g_opts =
          {
            (Request.defaults group) with
            b_policy = t.cfg.d_policy;
            b_jobs = t.cfg.d_jobs;
            b_cache = t.cfg.d_cache;
          };
        g_run = None;
        g_executed = 0;
        g_replayed = 0;
      }
    in
    Hashtbl.replace t.groups group g;
    g

(* A program's output is a function of its link order and its bins,
   and the language reads no input, so a [Run] whose key equals the
   last executed one's answers with its response, a raising or exiting
   program included; only an executed [Run] runs user code.  A link
   diagnostic ([E0601]) raises past the memo. *)
let execute_memo g (b : Request.built) =
  let key = Driver.link_snapshot g.g_mgr in
  match g.g_run with
  | Some (k, resp) when k = key ->
    g.g_replayed <- g.g_replayed + 1;
    resp
  | Some _ | None ->
    let buf = Buffer.create 256 in
    let r = Request.execute ~output:(Buffer.add_string buf) g.g_mgr b.sources in
    let resp = { r with Protocol.r_out = Buffer.contents buf } in
    g.g_run <- Some (key, resp);
    g.g_executed <- g.g_executed + 1;
    resp

(* every request builds through {!Request.serve}, the path an
   in-process request takes too *)
let serve_build t opts ~run ~on_diag =
  Request.guard ~json:opts.Protocol.b_error_json ~on_diag (fun () ->
      let g = group_state t opts.b_group in
      let env () =
        Obs.Metrics.incr m_builds;
        {
          Request.fs = t.fs;
          profile = Some t.profile;
          cache =
            (if opts.b_cache then Some (Cache.ops (Lazy.force t.cache))
             else None);
          backend = None;
        }
      in
      (* a build is recorded once, before its Run executes *)
      let recorded = ref false in
      let record (b : Request.built) =
        if not !recorded then begin
          recorded := true;
          g.g_sources <- b.sources;
          g.g_builds <- g.g_builds + 1;
          g.g_dirty <- [];
          g.g_opts <- opts;
          Watch.track g.g_watch (opts.b_group :: b.sources)
        end
      in
      let kind =
        if not run then Request.Build
        else Run (fun b -> record b; execute_memo g b)
      in
      let built, resp =
        Request.serve ~dir:t.cfg.d_dir ~env g.g_mgr kind opts ~on_diag
      in
      Option.iter record built;
      resp)

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
             ( "runs",
               Obj
                 [
                   ("executed", Int g.g_executed);
                   ("replayed", Int g.g_replayed);
                 ] );
           ])
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

let serve_request t req ~on_diag =
  t.served <- t.served + 1;
  Obs.Metrics.incr m_requests;
  let ok out = { Protocol.r_code = 0; r_out = out; r_err = "" } in
  match req with
  | Protocol.Build opts -> serve_build t opts ~run:false ~on_diag
  | Protocol.Run opts -> serve_build t opts ~run:true ~on_diag
  | Protocol.Explain { e_unit; e_json } ->
    Request.guard ~json:false ~on_diag (fun () ->
        Irm.Introspect.explain t.profile ~unit_name:e_unit ~json:e_json)
  | Protocol.Profile { p_json; p_top } ->
    Request.guard ~json:false ~on_diag (fun () ->
        Irm.Introspect.profile_report t.profile ~json:p_json ~top:p_top)
  | Protocol.Status ->
    ok (Obs.Json.to_canonical_string (status_json t) ^ "\n")
  | Protocol.Shutdown ->
    t.stopping <- true;
    ok ""

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
      let resp =
        Obs.Trace.span ~cat:"daemon"
          ~args:[ ("id", msg.f_id) ]
          "daemon.request"
          (fun () -> serve_request t req ~on_diag:(send Protocol.k_diag))
      in
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
            let resp = serve_build t g.g_opts ~run:false ~on_diag:ignore in
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
      cache =
        lazy
          (Cache.create ~dir:Cache.default_dir
             ~budget_bytes:Cache.default_budget fs);
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
      let g = group_state t group in
      let resp = serve_build t g.g_opts ~run:false ~on_diag:ignore in
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
