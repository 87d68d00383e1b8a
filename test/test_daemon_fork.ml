(* The compile daemon as a real forked process.  A client that hangs up
   mid-request costs the daemon that one connection, never its life:
   binding the socket sets SIGPIPE to ignored, so answering into a
   closed socket is an EPIPE on that connection, not a kill.  The child
   resets SIGPIPE to its default before [Server.create] — the test
   runner may already ignore it, and children inherit that.  Forking
   needs the domain-free worker executable. *)

module Frame = Pickle.Frame
module Protocol = Daemon.Protocol
module Server = Daemon.Server
module Client = Daemon.Client
module Gen = Workload.Gen

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let fresh_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smlsep-dfork-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* an 80-unit chain: its scratch build outlasts the client's patience *)
let write_chain dir =
  let fs = Vfs.real ~dir in
  let project = Gen.create fs (Gen.Chain 80) Gen.default_profile in
  fs.Vfs.fs_write "sources.cm"
    (String.concat "\n" (Gen.sources project) ^ "\n")

let spawn_daemon dir =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Sys.set_signal Sys.sigpipe Sys.Signal_default;
    (try
       Server.run
         (Server.create { (Server.default_config ~dir) with Server.d_log = ignore })
     with _ -> ());
    Unix._exit 0
  | child -> child

(* connect a raw socket once the daemon listens *)
let rec dial path tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
    Unix.close fd;
    Unix.sleepf 0.02;
    dial path (tries - 1)

let reap child =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] child with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      go ()
    | 0, _ ->
      Unix.kill child Sys.sigkill;
      ignore (Unix.waitpid [] child)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let test_client_hangup_mid_build () =
  let dir = fresh_dir () in
  write_chain dir;
  let child = spawn_daemon dir in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
      reap child;
      rm_rf dir)
  @@ fun () ->
  let fd =
    dial (Protocol.socket_path ~dir ~state_dir:Protocol.default_state_dir) 500
  in
  let build =
    Protocol.Build
      {
        Protocol.b_group = "sources.cm";
        b_policy = "cutoff";
        b_jobs = 1;
        b_cache = false;
        b_keep_going = false;
        b_werror = false;
        b_max_errors = None;
        b_error_json = false;
        b_schedule = "wavefront";
      }
  in
  let frames =
    Frame.encode ~kind:Protocol.k_hello ~id:"" ~payload:Protocol.version
    ^ Frame.encode ~kind:Protocol.k_request ~id:"1"
        ~payload:(Protocol.encode_request build)
  in
  ignore (Unix.write_substring fd frames 0 (String.length frames));
  (* hang up while the daemon is still building *)
  Unix.sleepf 0.02;
  Unix.close fd;
  (* queued behind the build: the daemon answers this only after it has
     written the build's response into the closed socket *)
  let status =
    match Client.connect ~timeout_s:30. ~dir () with
    | Some c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Some (Client.request ~timeout_s:30. c Protocol.Status)
    | None -> None
    | exception (Client.Protocol_error _ | Client.Timeout _ | Unix.Unix_error _)
      ->
      None
  in
  (match Unix.waitpid [ Unix.WNOHANG ] child with
  | 0, _ -> ()
  | _, Unix.WSIGNALED s when s = Sys.sigpipe ->
    Alcotest.fail "the daemon was killed by SIGPIPE"
  | _, _ -> Alcotest.fail "the daemon died");
  match status with
  | Some resp ->
    Alcotest.(check int) "status answered" 0 resp.Protocol.r_code;
    Alcotest.(check bool) "both requests served" true
      (match Obs.Json.member "served" (Obs.Json.parse resp.Protocol.r_out) with
      | Some (Obs.Json.Int n) -> n = 2
      | _ -> false)
  | None -> Alcotest.fail "the daemon did not answer Status"

let suite =
  [
    Alcotest.test_case "client hangs up mid-build" `Quick
      test_client_hangup_mid_build;
  ]
