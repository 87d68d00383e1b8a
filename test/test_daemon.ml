(* The compile server: protocol codecs, the advisory build lock, the
   polling watcher, and the step-driven reactor itself — driven
   in-process (no forks, no background threads): the test plays the
   client on a raw non-blocking socket and pumps [Server.step] by hand,
   so client and daemon interleave deterministically in one domain. *)

module Frame = Pickle.Frame
module Protocol = Daemon.Protocol
module Server = Daemon.Server
module Client = Daemon.Client
module Watch = Daemon.Watch
module Lock = Daemon.Lock
module Driver = Irm.Driver
module Transport = Remote.Transport
module Netchaos = Remote.Netchaos

(* ------------------------------------------------------------------ *)
(* Protocol codecs                                                     *)
(* ------------------------------------------------------------------ *)

let gen_string = QCheck.Gen.(string_size ~gen:char (int_range 0 30))

let gen_build_opts =
  QCheck.Gen.(
    map
      (fun (((group, policy, jobs, cache), (kg, werr, maxe, json)), sched) ->
        {
          Protocol.b_group = group;
          b_policy = policy;
          b_jobs = jobs;
          b_cache = cache;
          b_keep_going = kg;
          b_werror = werr;
          b_max_errors = maxe;
          b_error_json = json;
          b_schedule = sched;
        })
      (pair
         (pair
            (quad gen_string
               (oneofl [ "cutoff"; "timestamp"; "selective" ])
               (int_range 0 64) bool)
            (quad bool bool (opt (int_range 0 1000)) bool))
         (oneofl [ "wavefront"; "critical-path" ])))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun o -> Protocol.Build o) gen_build_opts;
        map (fun o -> Protocol.Run o) gen_build_opts;
        map
          (fun (u, j) -> Protocol.Explain { e_unit = u; e_json = j })
          (pair gen_string bool);
        map
          (fun (j, t) -> Protocol.Profile { p_json = j; p_top = t })
          (pair bool (int_range 0 100));
        return Protocol.Status;
        return Protocol.Shutdown;
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~count:200 ~name:"request codec roundtrips"
    (QCheck.make gen_request)
    (fun req -> Protocol.decode_request (Protocol.encode_request req) = req)

let prop_response_roundtrip =
  QCheck.Test.make ~count:200 ~name:"response codec roundtrips"
    (QCheck.make
       QCheck.Gen.(
         map
           (fun (code, out, err) -> { Protocol.r_code = code; r_out = out; r_err = err })
           (triple (int_range (-255) 255) gen_string gen_string)))
    (fun resp -> Protocol.decode_response (Protocol.encode_response resp) = resp)

let test_codec_rejects_garbage () =
  (match Protocol.decode_request "\255\255\255" with
  | exception Pickle.Buf.Corrupt _ -> ()
  | _ -> Alcotest.fail "unknown request tag must be rejected");
  match Protocol.decode_response "" with
  | exception Pickle.Buf.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated response must be rejected"

(* ------------------------------------------------------------------ *)
(* Fixtures: real temp directories (the daemon serves a real fs)       *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "smlsep-d%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

let base_src =
  "structure Base = struct val origin = 10 fun scale n = n * origin end"

let mid_src = "structure Mid = struct val v = Base.scale 2 end"
let top_src = "structure Top = struct val result = Mid.v + Base.origin end"

let write_file dir file contents =
  Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
      Out_channel.output_string oc contents)

let fresh_project () =
  let dir = fresh_dir () in
  write_file dir "base.sml" base_src;
  write_file dir "mid.sml" mid_src;
  write_file dir "top.sml" top_src;
  write_file dir "sources.cm" "base.sml\nmid.sml\ntop.sml\n";
  dir

(* the produced artifacts: every <unit>.bin in the directory, by name *)
let bins dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bin")
  |> List.sort String.compare
  |> List.map (fun f ->
         ( f,
           In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
         ))

let test_config ?(watch = false) ?(poll = 3600.) ?(client_timeout = 30.) dir =
  {
    (Server.default_config ~dir) with
    Server.d_watch = watch;
    d_poll_s = poll;
    d_client_timeout_s = client_timeout;
    d_log = ignore;
  }

(* ------------------------------------------------------------------ *)
(* A raw test client: non-blocking socket, hand-pumped reactor         *)
(* ------------------------------------------------------------------ *)

type client = { fd : Unix.file_descr; mutable buf : string }

let connect dir =
  let path =
    Protocol.socket_path ~dir ~state_dir:Protocol.default_state_dir
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = "" }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c ~kind ~id payload =
  let frame = Frame.encode ~kind ~id ~payload in
  let n = Unix.write_substring c.fd frame 0 (String.length frame) in
  Alcotest.(check int) "frame fully written" (String.length frame) n

(* step the server once and drain whatever it sent us; [`Eof] when the
   daemon closed our connection *)
let pump srv c =
  Server.step ~timeout_s:0.01 srv;
  let chunk = Bytes.create 65536 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | n ->
    c.buf <- c.buf ^ Bytes.sub_string chunk 0 n;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Data

let recv_frame srv c =
  let rec go tries =
    if tries = 0 then Alcotest.fail "daemon never answered";
    match Frame.pop c.buf with
    | Some (msg, rest) ->
      c.buf <- rest;
      msg
    | None -> (
      match pump srv c with
      | `Eof -> Alcotest.fail "daemon closed the connection"
      | `Data -> go (tries - 1))
  in
  go 2000

let recv_eof srv c =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    match pump srv c with
    | `Eof -> ()
    | `Data ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "daemon never closed the connection"
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let handshake srv c =
  send c ~kind:Protocol.k_hello ~id:"" Protocol.version;
  let m = recv_frame srv c in
  Alcotest.(check int) "hello answered" Protocol.k_hello m.Frame.f_kind

let client_of srv dir =
  let c = connect dir in
  handshake srv c;
  c

(* one request/response exchange; diag frames are collected *)
let rpc srv c ~id req =
  send c ~kind:Protocol.k_request ~id (Protocol.encode_request req);
  let rec go diags =
    let m = recv_frame srv c in
    if m.Frame.f_kind = Protocol.k_diag && String.equal m.Frame.f_id id then
      go (m.Frame.f_payload :: diags)
    else begin
      Alcotest.(check int) "response kind" Protocol.k_response m.Frame.f_kind;
      Alcotest.(check string) "response id" id m.Frame.f_id;
      (Protocol.decode_response m.Frame.f_payload, List.rev diags)
    end
  in
  go []

let build_opts ?(policy = "cutoff") ?(json = false) ?(schedule = "wavefront")
    group =
  {
    Protocol.b_group = group;
    b_policy = policy;
    b_jobs = 1;
    b_cache = false;
    b_keep_going = false;
    b_werror = false;
    b_max_errors = None;
    b_error_json = json;
    b_schedule = schedule;
  }

let status srv c ~id =
  let resp, _ = rpc srv c ~id Protocol.Status in
  Alcotest.(check int) "status code" 0 resp.Protocol.r_code;
  Obs.Json.parse resp.Protocol.r_out

let json_int k j =
  match Obs.Json.member k j with
  | Some (Obs.Json.Int n) -> n
  | _ -> Alcotest.fail (Printf.sprintf "status field %s missing" k)

let with_server cfg f =
  let srv = Server.create cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () -> f srv

(* ------------------------------------------------------------------ *)
(* Reactor basics                                                      *)
(* ------------------------------------------------------------------ *)

let test_status_and_shutdown () =
  let dir = fresh_project () in
  let sock =
    Protocol.socket_path ~dir ~state_dir:Protocol.default_state_dir
  in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let j = status srv c ~id:"1" in
  (match Obs.Json.member "version" j with
  | Some (Obs.Json.String v) ->
    Alcotest.(check string) "protocol version" Protocol.version v
  | _ -> Alcotest.fail "status has no version");
  Alcotest.(check int) "one request served" 1 (json_int "served" j);
  let resp, _ = rpc srv c ~id:"2" Protocol.Shutdown in
  Alcotest.(check int) "shutdown acknowledged" 0 resp.Protocol.r_code;
  (* the daemon drains the response, closes us, and stops *)
  recv_eof srv c;
  Server.step ~timeout_s:0.01 srv;
  Alcotest.(check bool) "server stopped" false (Server.running srv);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists sock);
  disconnect c

let test_stale_socket_swept () =
  let dir = fresh_project () in
  let sock =
    Protocol.socket_path ~dir ~state_dir:Protocol.default_state_dir
  in
  Unix.mkdir (Filename.dirname sock) 0o755;
  (* a dead daemon's leftover: a bound socket file nobody listens on *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.listen fd 1;
  Unix.close fd;
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let j = status srv c ~id:"1" in
  Alcotest.(check bool) "daemon rebound the socket" true (json_int "pid" j > 0);
  disconnect c

let test_half_open_socket_times_out () =
  (* a listener that accepts (via its backlog) but never speaks: the
     client's HELLO deadline must surface as [Timeout], not as a
     protocol error or a raw [Unix_error] *)
  let dir = fresh_project () in
  let sock =
    Protocol.socket_path ~dir ~state_dir:Protocol.default_state_dir
  in
  Unix.mkdir (Filename.dirname sock) 0o755;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.listen fd 4;
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match Client.connect ~timeout_s:0.3 ~dir () with
  | _ -> Alcotest.fail "handshake against a mute listener succeeded"
  | exception Client.Timeout _ -> ()
  | exception Client.Protocol_error msg ->
    Alcotest.failf "deadline surfaced as Protocol_error: %s" msg);
  Alcotest.(check bool)
    "waited out the handshake budget" true
    (Unix.gettimeofday () -. t0 >= 0.25)

let test_version_mismatch_rejected () =
  let dir = fresh_project () in
  with_server (test_config dir) @@ fun srv ->
  let c = connect dir in
  send c ~kind:Protocol.k_hello ~id:"" "smlsep-daemon/999";
  let m = recv_frame srv c in
  Alcotest.(check int) "error frame" Protocol.k_error m.Frame.f_kind;
  Alcotest.(check bool) "names the mismatch" true
    (String.length m.Frame.f_payload > 0);
  recv_eof srv c;
  disconnect c;
  (* the daemon is unharmed: a well-behaved client still gets served *)
  let c2 = client_of srv dir in
  ignore (status srv c2 ~id:"1");
  disconnect c2

let test_garbage_frame_survived () =
  let dir = fresh_project () in
  with_server (test_config dir) @@ fun srv ->
  (* pure garbage: not even a frame header *)
  let c = connect dir in
  ignore (Unix.write_substring c.fd "not a frame at all!!" 0 20);
  let m = recv_frame srv c in
  Alcotest.(check int) "garbage answered with error" Protocol.k_error
    m.Frame.f_kind;
  recv_eof srv c;
  disconnect c;
  (* a valid frame whose payload is not a decodable request: the error
     names the request id and the connection stays up *)
  let c2 = client_of srv dir in
  send c2 ~kind:Protocol.k_request ~id:"bad" "\255\255\255";
  let m2 = recv_frame srv c2 in
  Alcotest.(check int) "undecodable request errored" Protocol.k_error
    m2.Frame.f_kind;
  Alcotest.(check string) "echoes the request id" "bad" m2.Frame.f_id;
  ignore (status srv c2 ~id:"after");
  disconnect c2

let test_wedged_client_dropped () =
  let dir = fresh_project () in
  with_server (test_config ~client_timeout:0.2 dir) @@ fun srv ->
  let c = connect dir in
  (* half a frame, then silence: the watchdog must cut us loose *)
  let frame = Frame.encode ~kind:Protocol.k_hello ~id:"" ~payload:Protocol.version in
  ignore (Unix.write_substring c.fd frame 0 4);
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    match pump srv c with
    | `Eof -> ()
    | `Data ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "wedged client never dropped"
      else begin
        Unix.sleepf 0.05;
        wait ()
      end
  in
  wait ();
  disconnect c;
  (* and the daemon keeps serving *)
  let c2 = client_of srv dir in
  ignore (status srv c2 ~id:"1");
  disconnect c2

(* ------------------------------------------------------------------ *)
(* Builds over the socket                                              *)
(* ------------------------------------------------------------------ *)

(* the reference: what a one-shot in-process build of the same tree
   produces *)
let oneshot_build ?(policy = Driver.Cutoff) dir =
  let fs = Vfs.real ~dir in
  let sources = Irm.Group.load fs "sources.cm" in
  let mgr = Driver.create fs in
  ignore (Driver.build mgr ~policy ~sources)

let policies =
  [ ("cutoff", Driver.Cutoff); ("timestamp", Driver.Timestamp);
    ("selective", Driver.Selective) ]

let test_daemon_build_matches_oneshot () =
  List.iter
    (fun (policy_name, policy) ->
      let daemon_dir = fresh_project () in
      let oneshot_dir = fresh_project () in
      with_server (test_config daemon_dir) @@ fun srv ->
      let c = client_of srv daemon_dir in
      let resp, _ =
        rpc srv c ~id:"b1"
          (Protocol.Build (build_opts ~policy:policy_name "sources.cm"))
      in
      Alcotest.(check int) (policy_name ^ ": initial build ok") 0
        resp.Protocol.r_code;
      oneshot_build ~policy oneshot_dir;
      Alcotest.(check bool)
        (policy_name ^ ": initial bins byte-identical")
        true
        (bins daemon_dir = bins oneshot_dir);
      (* edit a unit in both trees identically; push the source mtime
         forward so even the timestamp policy sees it without sleeping
         across a second boundary *)
      let edited = "structure Mid = struct val v = Base.scale 3 end" in
      let future = Unix.gettimeofday () +. 5. in
      List.iter
        (fun d ->
          write_file d "mid.sml" edited;
          Unix.utimes (Filename.concat d "mid.sml") future future)
        [ daemon_dir; oneshot_dir ];
      let resp2, _ =
        rpc srv c ~id:"b2"
          (Protocol.Build (build_opts ~policy:policy_name "sources.cm"))
      in
      Alcotest.(check int) (policy_name ^ ": rebuild ok") 0
        resp2.Protocol.r_code;
      Alcotest.(check bool)
        (policy_name ^ ": rebuild touched the edited unit")
        true
        (contains ~needle:"mid.sml" resp2.Protocol.r_out);
      oneshot_build ~policy oneshot_dir;
      Alcotest.(check bool)
        (policy_name ^ ": post-edit bins byte-identical")
        true
        (bins daemon_dir = bins oneshot_dir);
      let resp3, _ = rpc srv c ~id:"b3" Protocol.Shutdown in
      Alcotest.(check int) "clean shutdown" 0 resp3.Protocol.r_code;
      disconnect c)
    policies

let test_run_over_socket () =
  let dir = fresh_project () in
  write_file dir "main.sml"
    "structure Main = struct val () = print (Int.toString Top.result) end";
  write_file dir "sources.cm" "base.sml\nmid.sml\ntop.sml\nmain.sml\n";
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let resp, _ = rpc srv c ~id:"r1" (Protocol.Run (build_opts "sources.cm")) in
  Alcotest.(check int) "run ok" 0 resp.Protocol.r_code;
  Alcotest.(check string) "program output shipped back" "30"
    resp.Protocol.r_out;
  disconnect c

let test_diagnostics_streamed_as_envelope () =
  let dir = fresh_project () in
  write_file dir "mid.sml" "structure Mid = struct val v = Base.nope end";
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let resp, diags =
    rpc srv c ~id:"b1"
      (Protocol.Build (build_opts ~json:true "sources.cm"))
  in
  Alcotest.(check int) "broken build fails" 1 resp.Protocol.r_code;
  Alcotest.(check int) "one diag envelope streamed" 1 (List.length diags);
  let envelope = Obs.Json.parse (List.hd diags) in
  (match Obs.Json.member "version" envelope with
  | Some (Obs.Json.String v) ->
    Alcotest.(check string) "diag envelope version" "smlsep-diag/1" v
  | _ -> Alcotest.fail "diag envelope has no version");
  disconnect c

let test_concurrent_clients () =
  let dir = fresh_project () in
  (* a second, disjoint group in the same tree *)
  write_file dir "solo.sml" "structure Solo = struct val x = 42 end";
  write_file dir "other.cm" "solo.sml\n";
  let oneshot_dir = fresh_project () in
  write_file oneshot_dir "solo.sml" "structure Solo = struct val x = 42 end";
  write_file oneshot_dir "other.cm" "solo.sml\n";
  with_server (test_config dir) @@ fun srv ->
  let cs = List.init 4 (fun _ -> client_of srv dir) in
  (* all four requests are in flight before any response is read: two
     overlapping builds of the same group, one of the disjoint group,
     one status probe *)
  (match cs with
  | [ c1; c2; c3; c4 ] ->
    send c1 ~kind:Protocol.k_request ~id:"q1"
      (Protocol.encode_request (Protocol.Build (build_opts "sources.cm")));
    send c2 ~kind:Protocol.k_request ~id:"q2"
      (Protocol.encode_request (Protocol.Build (build_opts "sources.cm")));
    send c3 ~kind:Protocol.k_request ~id:"q3"
      (Protocol.encode_request (Protocol.Build (build_opts "other.cm")));
    send c4 ~kind:Protocol.k_request ~id:"q4"
      (Protocol.encode_request Protocol.Status);
    List.iteri
      (fun i c ->
        let id = Printf.sprintf "q%d" (i + 1) in
        let rec collect () =
          let m = recv_frame srv c in
          if m.Frame.f_kind = Protocol.k_diag then collect ()
          else begin
            Alcotest.(check string) (id ^ " response id") id m.Frame.f_id;
            Protocol.decode_response m.Frame.f_payload
          end
        in
        let resp = collect () in
        Alcotest.(check int) (id ^ " succeeded") 0 resp.Protocol.r_code)
      cs
  | _ -> assert false);
  List.iter disconnect cs;
  (* both groups' artifacts match one-shot builds *)
  oneshot_build oneshot_dir;
  let fs = Vfs.real ~dir:oneshot_dir in
  let mgr = Driver.create fs in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:[ "solo.sml" ]);
  Alcotest.(check bool) "all bins byte-identical" true
    (bins dir = bins oneshot_dir)

(* ------------------------------------------------------------------ *)
(* Watch-driven rebuilds                                               *)
(* ------------------------------------------------------------------ *)

let test_eager_watch_rebuild () =
  let dir = fresh_project () in
  with_server (test_config ~watch:true ~poll:0.05 dir) @@ fun srv ->
  let c = client_of srv dir in
  let resp, _ = rpc srv c ~id:"b1" (Protocol.Build (build_opts "sources.cm")) in
  Alcotest.(check int) "initial build ok" 0 resp.Protocol.r_code;
  write_file dir "mid.sml" "structure Mid = struct val v = Base.scale 7 end";
  (let future = Unix.gettimeofday () +. 5. in
   Unix.utimes (Filename.concat dir "mid.sml") future future);
  (* the daemon's own sweep must pick the edit up and rebuild without
     any client request *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    Unix.sleepf 0.05;
    Server.step ~timeout_s:0.01 srv;
    let j = status srv c ~id:"s" in
    let groups =
      match Obs.Json.member "groups" j with
      | Some (Obs.Json.List gs) -> gs
      | _ -> []
    in
    let builds =
      List.fold_left (fun acc g -> acc + json_int "builds" g) 0 groups
    in
    if builds >= 2 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "watch never rebuilt"
    else wait ()
  in
  wait ();
  disconnect c;
  (* and the artifacts equal a one-shot build of the edited tree *)
  let oneshot_dir = fresh_project () in
  write_file oneshot_dir "mid.sml"
    "structure Mid = struct val v = Base.scale 7 end";
  oneshot_build oneshot_dir;
  Alcotest.(check bool) "watch-rebuilt bins byte-identical" true
    (bins dir = bins oneshot_dir)

let test_lazy_invalidation () =
  let dir = fresh_project () in
  with_server (test_config ~watch:false ~poll:0.05 dir) @@ fun srv ->
  let c = client_of srv dir in
  ignore (rpc srv c ~id:"b1" (Protocol.Build (build_opts "sources.cm")));
  (* an interface change (a new export), so cutoff cannot spare the
     dependents and the whole cone must recompile *)
  write_file dir "base.sml"
    "structure Base = struct val origin = 10 val extra = true fun scale n = \
     n * origin end";
  (let future = Unix.gettimeofday () +. 5. in
   Unix.utimes (Filename.concat dir "base.sml") future future);
  (* sweeps mark the cone dirty but must not rebuild on their own *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    Unix.sleepf 0.05;
    Server.step ~timeout_s:0.01 srv;
    let j = status srv c ~id:"s" in
    let dirty =
      match Obs.Json.member "watch" j with
      | Some w -> json_int "dirty_total" w
      | None -> 0
    in
    if dirty > 0 then j
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "sweep never saw the edit"
    else wait ()
  in
  let j = wait () in
  let builds =
    match Obs.Json.member "groups" j with
    | Some (Obs.Json.List (g :: _)) -> json_int "builds" g
    | _ -> 0
  in
  Alcotest.(check int) "lazy mode: no rebuild yet" 1 builds;
  (* the next requested build recompiles the dirty cone *)
  let resp, _ = rpc srv c ~id:"b2" (Protocol.Build (build_opts "sources.cm")) in
  Alcotest.(check int) "requested rebuild ok" 0 resp.Protocol.r_code;
  let count_tag tag =
    List.length
      (List.filter
         (fun line -> contains ~needle:tag line)
         (String.split_on_char '\n' resp.Protocol.r_out))
  in
  Alcotest.(check int) "whole cone recompiled" 3 (count_tag "[recompiled");
  disconnect c

(* ------------------------------------------------------------------ *)
(* The advisory lock                                                   *)
(* ------------------------------------------------------------------ *)

let test_lock_basics () =
  let dir = fresh_dir () in
  let l = Lock.acquire ~dir in
  (match Lock.acquire ~dir with
  | exception Lock.Held { holder; _ } ->
    Alcotest.(check string) "holder names our pid"
      (string_of_int (Unix.getpid ()))
      holder
  | l2 ->
    Lock.release l2;
    Alcotest.fail "second acquire must fail");
  Lock.release l;
  Lock.release l;
  (* idempotent *)
  let l3 = Lock.acquire ~dir in
  Lock.release l3;
  (* with_lock releases on exception *)
  (match Lock.with_lock ~dir (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  Lock.with_lock ~dir (fun () -> ())

let test_lock_contention_diagnostic () =
  let dir = fresh_project () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  (* the test process plays the stray one-shot build holding the lock;
     the daemon's bounded retry must give up with a clear diagnostic *)
  let l = Lock.acquire ~dir in
  let resp, _ = rpc srv c ~id:"b1" (Protocol.Build (build_opts "sources.cm")) in
  Lock.release l;
  Alcotest.(check int) "locked build fails" 1 resp.Protocol.r_code;
  Alcotest.(check bool) "diagnostic names the lock" true
    (contains ~needle:"lock" resp.Protocol.r_err);
  (* after release the same request succeeds *)
  let resp2, _ =
    rpc srv c ~id:"b2" (Protocol.Build (build_opts "sources.cm"))
  in
  Alcotest.(check int) "unlocked build ok" 0 resp2.Protocol.r_code;
  disconnect c

(* the holder is a fixed-width line: a stale line of any other width,
   or foreign bytes of the same width, read back as exactly our pid *)
let test_lock_rewrites_stale_holder () =
  let dir = fresh_dir () in
  let path = Filename.concat dir Lock.lock_file in
  let ours = Printf.sprintf "%10d\n" (Unix.getpid ()) in
  List.iter
    (fun (what, stale) ->
      write_file dir Lock.lock_file stale;
      let l = Lock.acquire ~dir in
      Alcotest.(check string)
        (what ^ ": the file holds our pid")
        ours
        (In_channel.with_open_bin path In_channel.input_all);
      Lock.release l)
    [
      ("a longer stale line", "123456789012345678901234567890\n");
      ("the old unpadded format", "99999999\n");
      ("foreign bytes of the same width", "not-a-pid\n\n");
      ("our own line", ours);
    ]

(* ------------------------------------------------------------------ *)
(* The watcher                                                         *)
(* ------------------------------------------------------------------ *)

let test_watch_sweep () =
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "a.sml" "alpha";
  fs.Vfs.fs_write "b.sml" "beta";
  let w = Watch.create fs in
  Watch.track w [ "a.sml"; "b.sml"; "ghost.sml" ];
  Alcotest.(check (list string))
    "tracked set"
    [ "a.sml"; "b.sml"; "ghost.sml" ]
    (Watch.tracked w);
  Alcotest.(check (list string)) "fresh track is clean" [] (Watch.sweep w);
  fs.Vfs.fs_write "b.sml" "beta beta";
  Alcotest.(check (list string)) "content change" [ "b.sml" ] (Watch.sweep w);
  Alcotest.(check (list string)) "change settles" [] (Watch.sweep w);
  (* same bytes rewritten: mtime moves, content does not — not dirty *)
  fs.Vfs.fs_write "a.sml" "alpha";
  Alcotest.(check (list string)) "touch without change" [] (Watch.sweep w);
  (* tracked-but-absent file appearing, then vanishing *)
  fs.Vfs.fs_write "ghost.sml" "boo";
  Alcotest.(check (list string)) "file appears" [ "ghost.sml" ] (Watch.sweep w);
  fs.Vfs.fs_remove "ghost.sml";
  Alcotest.(check (list string)) "file vanishes" [ "ghost.sml" ] (Watch.sweep w);
  (* untracking forgets *)
  Watch.track w [ "a.sml" ];
  fs.Vfs.fs_write "b.sml" "ignored now";
  Alcotest.(check (list string)) "untracked edits invisible" [] (Watch.sweep w)

(* ------------------------------------------------------------------ *)
(* Interrupted builds record partial profiles                          *)
(* ------------------------------------------------------------------ *)

let test_interrupt_records_partial_profile () =
  let fs = Vfs.memory () in
  List.iter
    (fun (p, s) -> fs.Vfs.fs_write p s)
    [ ("base.sml", base_src); ("mid.sml", mid_src); ("top.sml", top_src) ];
  (* the signal arrives while the second unit commits its bin *)
  let fs' =
    {
      fs with
      Vfs.fs_write =
        (fun path data ->
          (* bins land via the atomic-commit temp file *)
          if contains ~needle:"mid.sml.bin" path then
            raise (Driver.Interrupted "SIGINT-test");
          fs.Vfs.fs_write path data);
    }
  in
  let profile = Obs.Profile.load fs in
  let mgr = Driver.create fs' in
  (match
     Driver.build ~profile mgr ~policy:Driver.Cutoff
       ~sources:[ "base.sml"; "mid.sml"; "top.sml" ]
   with
  | _ -> Alcotest.fail "build must be interrupted"
  | exception Driver.Interrupted _ -> ());
  match Obs.Profile.last profile with
  | None -> Alcotest.fail "interrupted build must still be recorded"
  | Some b ->
    Alcotest.(check int) "only the completed unit recorded" 1
      (List.length b.Obs.Profile.bp_units);
    let u = List.hd b.Obs.Profile.bp_units in
    Alcotest.(check string) "it is the first unit" "base.sml"
      u.Obs.Profile.up_unit;
    Alcotest.(check string) "with its real outcome" "recompiled"
      u.Obs.Profile.up_outcome;
    (* the record survives a reload, so `irm profile` sees it *)
    let p' = Obs.Profile.load fs in
    Alcotest.(check bool) "persisted" true (Obs.Profile.last p' <> None)

(* ------------------------------------------------------------------ *)
(* Run: Driver.run plus a one-entry memo per group                     *)
(* ------------------------------------------------------------------ *)

let main_src = "structure Main = struct val () = print (Int.toString Top.result) end"

(* a project of [files] (name, text) with a group file listing them in
   order *)
let project_of files =
  let dir = fresh_dir () in
  List.iter (fun (f, src) -> write_file dir f src) files;
  write_file dir "sources.cm"
    (String.concat "" (List.map (fun (f, _) -> f ^ "\n") files));
  dir

let fresh_hot_project () =
  project_of
    [
      ("base.sml", base_src);
      ("mid.sml", mid_src);
      ("top.sml", top_src);
      ("main.sml", main_src);
    ]

(* make an edit visible to mtime-based staleness checks immediately *)
let edit dir file contents =
  write_file dir file contents;
  let future = Unix.gettimeofday () +. 5. in
  Unix.utimes (Filename.concat dir file) future future

(* the first group's [runs] counters in a status envelope: (executed,
   replayed) *)
let runs srv c ~id =
  match Obs.Json.member "groups" (status srv c ~id) with
  | Some (Obs.Json.List (g :: _)) -> (
    match Obs.Json.member "runs" g with
    | Some r -> (json_int "executed" r, json_int "replayed" r)
    | None -> Alcotest.fail "group runs field missing")
  | _ -> Alcotest.fail "no groups in status"

(* what a cold one-shot `irm run` of [dir] answers: exit code, stdout,
   stderr *)
let oneshot_run dir =
  let fs = Vfs.real ~dir in
  let sources = Irm.Group.load fs "sources.cm" in
  let mgr = Driver.create fs in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources);
  let buf = Buffer.create 64 in
  match Driver.run ~output:(Buffer.add_string buf) mgr ~sources with
  | _ -> (0, Buffer.contents buf, "")
  | exception Dynamics.Eval.Sml_raise packet ->
    ( 1,
      Buffer.contents buf,
      Printf.sprintf "uncaught exception: %s\n"
        (Dynamics.Value.to_string packet) )
  | exception Dynamics.Eval.Sml_exit code -> (code, Buffer.contents buf, "")

(* a daemon Run answers exactly what a cold one-shot run of a scratch
   copy of the sources answers; [expect] pins its stdout too *)
let check_run_matches_oneshot ?expect what srv c ~id dir =
  let resp, _ = rpc srv c ~id (Protocol.Run (build_opts "sources.cm")) in
  let scratch = fresh_dir () in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".sml" || Filename.check_suffix f ".cm" then
        write_file scratch f
          (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
    (Array.to_list (Sys.readdir dir));
  let code, out, err = oneshot_run scratch in
  rm_rf scratch;
  Alcotest.(check (triple int string string))
    (what ^ ": Run = cold one-shot run")
    (code, out, err)
    (resp.Protocol.r_code, resp.Protocol.r_out, resp.Protocol.r_err);
  Option.iter
    (fun out ->
      Alcotest.(check string) (what ^ ": output") out resp.Protocol.r_out)
    expect

(* a printing chain (base <- mid <- top) plus an independent unit.
   [origin] flows into mid's and top's values, so an implementation
   edit to it reaches units whose bins cutoff keeps *)
let print_base ?(origin = 10) ?(extra = "") tag =
  Printf.sprintf
    "structure Base = struct val origin = %d%s fun scale n = n * origin val \
     p = print \"B%s\" end"
    origin extra tag

let print_chain () =
  project_of
    [
      ("base.sml", print_base "");
      ("mid.sml", "structure Mid = struct val v = Base.scale 2 val p = print \"M\" end");
      ( "top.sml",
        "structure Top = struct val result = Mid.v + Base.origin val p = \
         print (intToString result) end" );
      ("solo.sml", "structure Solo = struct val p = print \"S\" end");
    ]

let test_run_baseline () =
  let dir = print_chain () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  check_run_matches_oneshot ~expect:"BM30S" "baseline" srv c ~id:"r1" dir;
  Alcotest.(check (pair int int)) "one run executed" (1, 0)
    (runs srv c ~id:"s1");
  disconnect c

(* a function one unit defines, called by another unit's top-level
   code, prints into the caller's output, before and after the caller
   is edited *)
let test_run_cross_unit_print () =
  let use tag =
    Printf.sprintf
      "structure Use = struct val p = Say.say \"hi%s\" val q = print \"B\" end"
      tag
  in
  let dir =
    project_of
      [
        ("say.sml", "structure Say = struct val p = print \"A\" fun say s = print s end");
        ("use.sml", use "");
      ]
  in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  check_run_matches_oneshot ~expect:"AhiB" "baseline" srv c ~id:"r1" dir;
  edit dir "use.sml" (use "!");
  check_run_matches_oneshot ~expect:"Ahi!B" "caller edited" srv c ~id:"r2" dir;
  disconnect c

(* a Build then a Run after one edit to base: the Build's summary
   holds [recompiled], and the Run equals a cold one-shot run *)
let build_then_run what srv c ~id dir ~recompiled ?expect () =
  let resp, _ =
    rpc srv c ~id:("b" ^ id) (Protocol.Build (build_opts "sources.cm"))
  in
  Alcotest.(check bool) (what ^ ": " ^ recompiled) true
    (contains ~needle:recompiled resp.Protocol.r_out);
  check_run_matches_oneshot ?expect what srv c ~id:("r" ^ id) dir

let iface_base ?(origin = 10) tag =
  print_base ~origin ~extra:" val extra = 1" tag

(* cutoff spares recompilation, not re-execution: after a pid-stable
   edit only base recompiles, yet mid's and top's values change *)
let test_run_pid_stable_edit () =
  let dir = print_chain () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  check_run_matches_oneshot ~expect:"BM30S" "baseline" srv c ~id:"r0" dir;
  edit dir "base.sml" (print_base ~origin:11 "");
  build_then_run "pid-stable edit" srv c ~id:"1" dir
    ~recompiled:"1 recompiled" ~expect:"BM33S" ();
  disconnect c

(* the daemon's manager keeps each codeUnit it linked: the first Run
   decodes every unit's code, and a Run after a pid-stable edit decodes
   only the edited unit's *)
let test_run_decodes_edited_code () =
  let dir = print_chain () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let code_decodes () =
    Option.value ~default:0 (Obs.Metrics.find "pickle.code_decodes")
  in
  let run id =
    let before = code_decodes () in
    let resp, _ = rpc srv c ~id (Protocol.Run (build_opts "sources.cm")) in
    (resp.Protocol.r_out, code_decodes () - before)
  in
  Alcotest.(check (pair string int)) "the first Run decodes every unit"
    ("BM30S", 4) (run "r0");
  edit dir "base.sml" (print_base ~origin:11 "");
  Alcotest.(check (pair string int)) "a Run after a pid-stable edit"
    ("BM33S", 1) (run "r1");
  disconnect c

(* an interface edit recompiles base's importing cone, and the Run
   after it executes every unit again, though it prints what the
   baseline printed *)
let test_run_iface_edit_cone () =
  let dir = print_chain () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let executions () =
    Option.value ~default:0 (Obs.Metrics.find "link.executions")
  in
  check_run_matches_oneshot ~expect:"BM30S" "baseline" srv c ~id:"r0" dir;
  edit dir "base.sml" (iface_base "");
  let resp, _ = rpc srv c ~id:"b1" (Protocol.Build (build_opts "sources.cm")) in
  Alcotest.(check bool) "the cone recompiles" true
    (contains ~needle:"3 recompiled" resp.Protocol.r_out);
  let before = executions () in
  let resp, _ = rpc srv c ~id:"r1" (Protocol.Run (build_opts "sources.cm")) in
  Alcotest.(check string) "output" "BM30S" resp.Protocol.r_out;
  Alcotest.(check int) "every unit executed" (before + 4) (executions ());
  Alcotest.(check (pair int int)) "the run executed" (2, 0)
    (runs srv c ~id:"s1");
  check_run_matches_oneshot "interface edit" srv c ~id:"r2" dir;
  disconnect c

let test_run_iface_edit () =
  let dir = print_chain () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  check_run_matches_oneshot ~expect:"BM30S" "baseline" srv c ~id:"r0" dir;
  edit dir "base.sml" (iface_base ~origin:11 "2");
  build_then_run "interface edit" srv c ~id:"1" dir
    ~recompiled:"3 recompiled" ~expect:"B2M33S" ();
  disconnect c

(* an implementation edit, then an interface edit: each Run executes
   and equals a cold one-shot run; a Build executes nothing *)
let test_run_impl_then_iface_edit () =
  let dir = print_chain () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  check_run_matches_oneshot ~expect:"BM30S" "baseline" srv c ~id:"r0" dir;
  edit dir "base.sml" (print_base ~origin:11 "");
  let resp, _ = rpc srv c ~id:"b1" (Protocol.Build (build_opts "sources.cm")) in
  Alcotest.(check bool) "cutoff recompiles base alone" true
    (contains ~needle:"1 recompiled" resp.Protocol.r_out);
  Alcotest.(check (pair int int)) "a build executes nothing" (1, 0)
    (runs srv c ~id:"s1");
  check_run_matches_oneshot ~expect:"BM33S" "pid-stable edit" srv c ~id:"r1"
    dir;
  edit dir "base.sml" (iface_base ~origin:11 "2");
  build_then_run "interface edit" srv c ~id:"2" dir
    ~recompiled:"3 recompiled" ~expect:"B2M33S" ();
  Alcotest.(check (pair int int)) "every changed run executed" (3, 0)
    (runs srv c ~id:"s2");
  disconnect c

(* a [ref] shared through an unchanged export: A allocates it, B
   assigns it, C (which imports only A) prints it.  Editing B reaches
   C's output under a pid-stable edit and an interface edit alike *)
let test_run_shared_ref () =
  let assign n = Printf.sprintf "structure B = struct val () = A.r := %d end" n in
  let dir =
    project_of
      [
        ("a.sml", "structure A = struct val r = ref 0 end");
        ("b.sml", assign 5);
        ("c.sml", "structure C = struct val p = print (intToString (!A.r)) end");
      ]
  in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  check_run_matches_oneshot ~expect:"5" "baseline" srv c ~id:"r1" dir;
  edit dir "b.sml" (assign 6);
  check_run_matches_oneshot ~expect:"6" "pid-stable edit" srv c ~id:"r2" dir;
  edit dir "b.sml" "structure B = struct val () = A.r := 7 val extra = 1 end";
  check_run_matches_oneshot ~expect:"7" "interface edit" srv c ~id:"r3" dir;
  disconnect c

(* a Run whose build changed no bin answers from the memo: no unit
   executes ([link.executions] holds) and [runs.replayed] counts it *)
let test_null_run_executes_nothing () =
  let dir = fresh_hot_project () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let executions () =
    Option.value ~default:0 (Obs.Metrics.find "link.executions")
  in
  let run id =
    let resp, _ = rpc srv c ~id (Protocol.Run (build_opts "sources.cm")) in
    Alcotest.(check (pair int string)) (id ^ ": response") (0, "30")
      (resp.Protocol.r_code, resp.Protocol.r_out)
  in
  let before = executions () in
  run "r1";
  Alcotest.(check int) "the first run executes every unit" (before + 4)
    (executions ());
  Alcotest.(check (pair int int)) "executed" (1, 0) (runs srv c ~id:"s1");
  ignore (rpc srv c ~id:"b1" (Protocol.Build (build_opts "sources.cm")));
  let before = executions () in
  run "r2";
  run "r3";
  Alcotest.(check int) "a null run executes nothing" before (executions ());
  Alcotest.(check (pair int int)) "replayed" (1, 2) (runs srv c ~id:"s2");
  disconnect c

(* a seeded walk of implementation and interface edits to base: after
   each, Run = a cold one-shot run *)
let test_run_edit_walk () =
  let rng = Random.State.make [| 0x5ead |] in
  let dir = print_chain () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let impl = ref 0 and iface = ref 0 in
  for step = 1 to 12 do
    if Random.State.bool rng then incr impl else incr iface;
    let extra =
      if !iface = 0 then ""
      else Printf.sprintf " val extra%d = %d" !iface !iface
    in
    edit dir "base.sml"
      (print_base ~origin:(10 + !impl) ~extra (string_of_int !impl));
    check_run_matches_oneshot
      (Printf.sprintf "step %d" step)
      srv c ~id:(Printf.sprintf "r%d" step) dir
  done;
  disconnect c

(* examples/miniml: flipping IntOrd.less keeps its interface pid, so
   cutoff recompiles intord alone — yet the sorted output reverses *)
let miniml_files =
  [
    ("intord.sml",
     "structure IntOrd = struct type elem = int fun less (a, b) = a < b end");
    ("sort.sml",
     "functor Sort (O : ORD) = struct\n\
      fun insert (x, nil) = [x]\n\
     \  | insert (x, y :: ys) = if O.less (x, y) then x :: y :: ys else y :: \
      insert (x, ys)\n\
      fun sort nil = nil | sort (x :: xs) = insert (x, sort xs)\n\
      end");
    ("ord.sml", "signature ORD = sig type elem val less : elem * elem -> bool end");
    ("main.sml",
     "structure Main = struct\n\
      structure S = Sort(IntOrd)\n\
      fun digits xs = let fun go (acc, l) = case l of nil => acc | x :: r => \
      go (acc * 10 + x, r) in go (0, xs) end\n\
      val answer = digits (S.sort [3, 1, 2])\n\
      val banner = print (intToString answer)\n\
      end");
    ("sources.cm", "intord.sml\nord.sml\nsort.sml\nmain.sml\n");
  ]

let test_pid_stable_run_matches_cold_run () =
  let dir = fresh_dir () in
  List.iter (fun (f, src) -> write_file dir f src) miniml_files;
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  check_run_matches_oneshot "baseline" srv c ~id:"r1" dir;
  edit dir "intord.sml"
    "structure IntOrd = struct type elem = int fun less (a, b) = a > b end";
  let resp, _ = rpc srv c ~id:"b1" (Protocol.Build (build_opts "sources.cm")) in
  Alcotest.(check bool) "cutoff recompiles intord alone" true
    (contains ~needle:"1 recompiled" resp.Protocol.r_out);
  let resp, _ = rpc srv c ~id:"r2" (Protocol.Run (build_opts "sources.cm")) in
  Alcotest.(check string) "reversed" "321" resp.Protocol.r_out;
  check_run_matches_oneshot "flipped" srv c ~id:"r3" dir;
  disconnect c

(* a unit raising or calling exit answers like a one-shot run: the
   output before the failure, then the exception and exit code.  The
   outcome is memoized, so the null Run after it answers the same *)
let test_run_failure_matches_oneshot () =
  let dir = fresh_hot_project () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  check_run_matches_oneshot "baseline" srv c ~id:"r0" dir;
  List.iteri
    (fun i (tail, code, err) ->
      edit dir "main.sml"
        (Printf.sprintf
           "structure Main = struct val () = print (Int.toString Top.result) \
            val () = %s end"
           tail);
      let resp, _ =
        rpc srv c ~id:(Printf.sprintf "f%d" i)
          (Protocol.Run (build_opts "sources.cm"))
      in
      Alcotest.(check (triple int string string))
        (tail ^ ": response") (code, "30", err)
        (resp.Protocol.r_code, resp.Protocol.r_out, resp.Protocol.r_err);
      check_run_matches_oneshot (tail ^ ", null run") srv c
        ~id:(Printf.sprintf "g%d" i) dir;
      Alcotest.(check (pair int int))
        (tail ^ ": the null run replayed")
        (i + 2, i + 1)
        (runs srv c ~id:(Printf.sprintf "s%d" i)))
    [
      ("raise Fail \"boom\"", 1, "uncaught exception: Fail(\"boom\")\n");
      ("exit 3", 3, "");
    ];
  edit dir "main.sml" main_src;
  let resp, _ = rpc srv c ~id:"r1" (Protocol.Run (build_opts "sources.cm")) in
  Alcotest.(check (pair int string)) "restored" (0, "30")
    (resp.Protocol.r_code, resp.Protocol.r_out);
  disconnect c

(* a program failing from its first Run, after an earlier unit
   printed: the partial output and the failure answer like a one-shot
   run, and so does the null Run after it *)
let test_run_failing_program () =
  let boom tail = Printf.sprintf "structure Boom = struct val () = %s end" tail in
  let dir =
    project_of
      [
        ("say.sml", "structure Say = struct val p = print \"A\" end");
        ("boom.sml", boom "raise Fail \"no\"");
      ]
  in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  List.iteri
    (fun i (tail, code, err) ->
      edit dir "boom.sml" (boom tail);
      let resp, _ =
        rpc srv c ~id:(Printf.sprintf "f%d" i)
          (Protocol.Run (build_opts "sources.cm"))
      in
      Alcotest.(check (triple int string string))
        (tail ^ ": partial output and failure") (code, "A", err)
        (resp.Protocol.r_code, resp.Protocol.r_out, resp.Protocol.r_err);
      check_run_matches_oneshot (tail ^ ", null run") srv c
        ~id:(Printf.sprintf "g%d" i) dir;
      Alcotest.(check (pair int int))
        (tail ^ ": the null run replayed")
        (i + 1, i + 1)
        (runs srv c ~id:(Printf.sprintf "s%d" i)))
    [
      ("raise Fail \"no\"", 1, "uncaught exception: Fail(\"no\")\n");
      ("exit 3", 3, "");
    ];
  edit dir "boom.sml" (boom "print \"B\"");
  check_run_matches_oneshot ~expect:"AB" "repaired" srv c ~id:"r1" dir;
  disconnect c

(* ------------------------------------------------------------------ *)
(* Stale daemon detection                                              *)
(* ------------------------------------------------------------------ *)

let test_probe_stale_daemon () =
  let dir = fresh_dir () in
  let sock =
    Protocol.socket_path ~dir ~state_dir:Protocol.default_state_dir
  in
  let pidp = Protocol.pid_path ~dir ~state_dir:Protocol.default_state_dir in
  Unix.mkdir (Filename.dirname sock) 0o755;
  (* a SIGKILL'd daemon's leftovers: a bound socket nobody listens on,
     and a recorded pid that is not running (beyond pid_max, so it
     cannot exist) *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.listen fd 1;
  Unix.close fd;
  Out_channel.with_open_bin pidp (fun oc ->
      Out_channel.output_string oc "99999999\n");
  (match Client.probe ~dir () with
  | Client.Stale (Some p) ->
    Alcotest.(check int) "names the dead pid" 99999999 p
  | Client.Stale None -> Alcotest.fail "pid file was readable"
  | Client.Live _ | Client.Unresponsive _ | Client.Absent ->
    Alcotest.fail "expected a stale diagnosis");
  Alcotest.(check bool) "socket swept" false (Sys.file_exists sock);
  Alcotest.(check bool) "pid file swept" false (Sys.file_exists pidp);
  match Client.probe ~dir () with
  | Client.Absent -> ()
  | _ -> Alcotest.fail "a swept directory reads as absent"

(* ------------------------------------------------------------------ *)
(* Deleted files                                                       *)
(* ------------------------------------------------------------------ *)

let test_deleted_unit_invalidates_cone () =
  let dir = fresh_project () in
  with_server (test_config ~watch:false ~poll:0.05 dir) @@ fun srv ->
  let c = client_of srv dir in
  ignore (rpc srv c ~id:"b1" (Protocol.Build (build_opts "sources.cm")));
  (* deleting a tracked unit: its exports vanish from the parse, so
     the cone must fall back to the whole group, not silently shrink *)
  Sys.remove (Filename.concat dir "base.sml");
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    Unix.sleepf 0.05;
    Server.step ~timeout_s:0.01 srv;
    let dirty =
      match Obs.Json.member "groups" (status srv c ~id:"s") with
      | Some (Obs.Json.List (g :: _)) -> (
        match Obs.Json.member "dirty" g with
        | Some (Obs.Json.List l) ->
          List.filter_map
            (function Obs.Json.String s -> Some s | _ -> None)
            l
        | _ -> [])
      | _ -> []
    in
    if dirty <> [] then dirty
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "sweep never reported the deletion"
    else wait ()
  in
  let dirty = wait () in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " invalidated") true (List.mem f dirty))
    [ "base.sml"; "mid.sml"; "top.sml" ];
  disconnect c

(* ------------------------------------------------------------------ *)
(* Network weather                                                     *)
(* ------------------------------------------------------------------ *)

(* the listing with the summary line's wall time cut off *)
let untimed listing =
  String.split_on_char '\n' listing
  |> List.map (fun line ->
         match String.rindex_opt line ',' with
         | Some i when contains ~needle:" ms)" line -> String.sub line 0 i
         | _ -> line)

let oneshot_listing dir =
  let fs = Vfs.real ~dir in
  let sources = Irm.Group.load fs "sources.cm" in
  let mgr = Driver.create fs in
  Irm.Introspect.build_listing mgr
    (Driver.build mgr ~policy:Driver.Cutoff ~sources)

(* one client session under a fault plan: greet, ask for status, hang
   up — whatever the network does to it along the way *)
let chaos_session srv dir plan =
  let inj = Netchaos.injector plan in
  let tick () = Server.step ~timeout_s:0. srv in
  let deadline () = Unix.gettimeofday () +. 0.3 in
  let addr =
    Transport.Unix_sock
      (Protocol.socket_path ~dir ~state_dir:Protocol.default_state_dir)
  in
  (match Transport.dial ~chaos:inj addr with
  | exception Transport.Unreachable _ -> ()
  | conn ->
    (try
       Transport.greet ~tick conn ~version:Protocol.version
         ~deadline:(deadline ());
       Transport.send conn ~kind:Protocol.k_request ~id:"c"
         ~payload:(Protocol.encode_request Protocol.Status);
       let rec answer () =
         let m = Transport.await ~tick conn ~deadline:(deadline ()) in
         if m.Frame.f_kind <> Protocol.k_response then answer ()
       in
       answer ()
     with
    | Transport.Timed_out | Transport.Unreachable _
    | Transport.Protocol_damage _
    ->
      ());
    Transport.close conn);
  (* let the daemon observe the hang-up *)
  for _ = 1 to 5 do
    Server.step ~timeout_s:0.01 srv
  done;
  Netchaos.fired inj

(* Netchaos reaches the daemon: under every plan the daemon survives,
   and a clean request afterwards gets a one-shot build's listing and
   bins *)
let test_daemon_survives_network_faults () =
  let open Netchaos in
  let plans =
    [
      [ { ce_op = Send; ce_at = 1; ce_fault = Reset } ];
      [ { ce_op = Send; ce_at = 2; ce_fault = Reset } ];
      [ { ce_op = Recv; ce_at = 1; ce_fault = Reset } ];
      [ { ce_op = Send; ce_at = 1; ce_fault = Truncate_frame } ];
      [ { ce_op = Send; ce_at = 2; ce_fault = Truncate_frame } ];
      [ { ce_op = Send; ce_at = 1; ce_fault = Black_hole } ];
      [ { ce_op = Send; ce_at = 2; ce_fault = Black_hole } ];
      [ { ce_op = Recv; ce_at = 1; ce_fault = Duplicate_response } ];
      [ { ce_op = Recv; ce_at = 2; ce_fault = Duplicate_response } ];
    ]
    (* and seeded mixes over the session's few operations *)
    @ List.init 4 (fun i -> seeded_plan ~seed:(i + 1) ~ops:2)
  in
  List.iter
    (fun plan ->
      let name = Format.asprintf "plan %a" pp_plan plan in
      let dir = fresh_project () in
      let oneshot_dir = fresh_project () in
      with_server (test_config dir) @@ fun srv ->
      Alcotest.(check bool) (name ^ ": a fault fired") true
        (chaos_session srv dir plan > 0);
      Alcotest.(check bool) (name ^ ": daemon survived") true
        (Server.running srv);
      let c = client_of srv dir in
      let resp, _ =
        rpc srv c ~id:"b" (Protocol.Build (build_opts "sources.cm"))
      in
      disconnect c;
      Alcotest.(check int) (name ^ ": clean build ok") 0 resp.Protocol.r_code;
      Alcotest.(check (list string))
        (name ^ ": one-shot listing")
        (untimed (oneshot_listing oneshot_dir))
        (untimed resp.Protocol.r_out);
      Alcotest.(check bool) (name ^ ": one-shot bins") true
        (bins dir = bins oneshot_dir))
    plans

(* ------------------------------------------------------------------ *)
(* One request path                                                    *)
(* ------------------------------------------------------------------ *)

module Request = Daemon.Request

(* what `irm build|run` answers in-process on a fresh manager: exit
   code, stdout (a Run's program output first, where the CLI streams
   it), stderr and diag frames, times removed *)
(* a one-shot's environment, its profile store loaded from disk *)
let oneshot_env fs () =
  { Request.fs; profile = Some (Obs.Profile.load fs); cache = None; backend = None }

let inprocess ~run dir opts =
  let fs = Vfs.real ~dir in
  let buf = Buffer.create 64 in
  let frames = ref [] in
  let on_diag f = frames := f :: !frames in
  let mgr = Driver.create fs in
  let kind =
    if run then
      Request.Run
        (fun b -> Request.execute ~output:(Buffer.add_string buf) mgr b.sources)
    else Request.Build
  in
  let resp =
    Request.guard ~json:opts.Protocol.b_error_json ~on_diag (fun () ->
        snd
          (Request.serve ~dir ~env:(oneshot_env fs) mgr kind opts ~on_diag))
  in
  ( resp.Protocol.r_code,
    untimed (Buffer.contents buf ^ resp.Protocol.r_out),
    untimed resp.Protocol.r_err,
    List.rev !frames )

let by_daemon ~run srv c ~id opts =
  let resp, frames =
    rpc srv c ~id (if run then Protocol.Run opts else Protocol.Build opts)
  in
  ( resp.Protocol.r_code,
    untimed resp.Protocol.r_out,
    untimed resp.Protocol.r_err,
    frames )

(* the same request sequence against a daemon and in-process, on two
   copies of one project edited alike: every answer is equal, clean,
   failing under keep-going (text and JSON), failing outright, and a
   program that raises or exits *)
let test_inprocess_equals_daemon () =
  List.iter
    (fun (policy, _) ->
      let ddir = fresh_hot_project () in
      let idir = fresh_hot_project () in
      with_server (test_config ddir) @@ fun srv ->
      let c = client_of srv ddir in
      let n = ref 0 in
      let check what run opts =
        incr n;
        let what =
          Printf.sprintf "%s: %s %s%s" policy what
            (if run then "run" else "build")
            (if opts.Protocol.b_error_json then " (json)" else "")
        in
        let dc, dout, derr, dframes =
          by_daemon ~run srv c ~id:(Printf.sprintf "q%d" !n) opts
        in
        let ic, iout, ierr, iframes = inprocess ~run idir opts in
        Alcotest.(check int) (what ^ ": code") ic dc;
        Alcotest.(check (list string)) (what ^ ": stdout") iout dout;
        Alcotest.(check (list string)) (what ^ ": stderr") ierr derr;
        Alcotest.(check (list string)) (what ^ ": diag frames") iframes dframes
      in
      let edit_both file src = List.iter (fun d -> edit d file src) [ ddir; idir ] in
      let opts = build_opts ~policy ~schedule:"auto" "sources.cm" in
      let kg = { opts with Protocol.b_keep_going = true } in
      check "clean" false opts;
      check "clean" true opts;
      check "null" true opts;
      edit_both "mid.sml" "structure Mid = struct val v = Base.nope end";
      List.iter
        (fun json ->
          let kg = { kg with b_error_json = json } in
          let opts = { opts with b_error_json = json } in
          check "keep-going failure" false kg;
          check "keep-going failure" true kg;
          check "failure" false opts;
          check "failure" true opts)
        [ false; true ];
      edit_both "mid.sml" mid_src;
      List.iter
        (fun tail ->
          edit_both "main.sml"
            (Printf.sprintf
               "structure Main = struct val () = print (Int.toString \
                Top.result) val () = %s end"
               tail);
          check tail true opts;
          check (tail ^ ", null") true opts)
        [ "raise Fail \"boom\""; "exit 3" ];
      disconnect c)
    policies

(* a traced one-shot request accounts for its lock and its profile
   load, both ahead of the build *)
let test_oneshot_trace () =
  let dir = fresh_project () in
  let fs = Vfs.real ~dir in
  Obs.Trace.enable ();
  Fun.protect ~finally:Obs.Trace.disable @@ fun () ->
  let _, resp =
    Request.serve ~dir ~env:(oneshot_env fs) (Driver.create fs) Request.Build
      (build_opts "sources.cm") ~on_diag:ignore
  in
  Alcotest.(check int) "built" 0 resp.Protocol.r_code;
  let span name =
    match
      List.find_opt
        (fun e -> e.Obs.Trace.ev_name = name)
        (Obs.Trace.events ())
    with
    | Some e -> e
    | None -> Alcotest.fail (name ^ " span missing")
  in
  let build = span "build" in
  List.iter
    (fun name ->
      let e = span name in
      Alcotest.(check bool)
        (name ^ " ends before the build starts")
        true
        (e.Obs.Trace.ev_start_us +. e.Obs.Trace.ev_dur_us
        <= build.Obs.Trace.ev_start_us))
    [ "lock.acquire"; "profile.load" ]

(* the exit-code table: every exception a request may end in, and
   [Interrupted] passing through it *)
let test_exit_code_table () =
  let d = Support.Diag.make Support.Diag.Manager Support.Loc.dummy "broken" in
  let diagnostics ds =
    {
      Protocol.r_code = 1;
      r_out = "";
      r_err = String.concat "" (List.map Support.Diag.to_string ds);
    }
  in
  List.iter
    (fun (name, exn, code, err) ->
      let r = Request.of_exn ~diagnostics exn in
      Alcotest.(check int) (name ^ ": exit code") code r.Protocol.r_code;
      Alcotest.(check bool)
        (name ^ ": says " ^ err)
        true
        (contains ~needle:err r.Protocol.r_err))
    [
      ("Diag.Error", Support.Diag.Error d, 1, "broken");
      ("Diag.Errors", Support.Diag.Errors [ d; d ], 1, "broken");
      ("Buf.Corrupt", Pickle.Buf.Corrupt "torn bin", 1, "torn bin");
      ( "Lock.Held",
        Lock.Held { lock_path = ".irm-lock"; holder = "42" },
        1,
        "held by pid 42 — another build (or the daemon)" );
      ( "Vfs.Crash",
        Vfs.Crash { crash_op = "write"; crash_path = "a.sml.bin" },
        3,
        "on-disk state is safe; rerun" );
      ( "Vfs.Fault",
        Vfs.Fault
          { fault_op = "read"; fault_path = "a.sml"; fault_transient = false },
        1,
        "read of a.sml failed" );
      ("Sys_error", Sys_error "a.sml: gone", 1, "a.sml: gone");
      ("Pool_down", Remote.Pool.Pool_down "no hello", 4, "(no hello)");
      ( "Sml_raise",
        Dynamics.Eval.Sml_raise (Dynamics.Value.Vint 7),
        1,
        "uncaught exception: " );
      ("Sml_exit", Dynamics.Eval.Sml_exit 9, 9, "");
      ( "a raising cleanup",
        Fun.Finally_raised (Sys_error "t.json: denied"),
        1,
        "t.json: denied" );
    ];
  (match Request.of_exn ~diagnostics (Driver.Interrupted "SIGINT") with
  | _ -> Alcotest.fail "Interrupted must pass through the table"
  | exception Driver.Interrupted _ -> ());
  (* in JSON mode a raised diagnostic streams as one envelope *)
  let frames = ref [] in
  let r =
    Request.guard ~json:true
      ~on_diag:(fun f -> frames := f :: !frames)
      (fun () -> raise (Support.Diag.Error d))
  in
  Alcotest.(check (pair int string)) "json: code, no stderr" (1, "")
    (r.Protocol.r_code, r.Protocol.r_err);
  Alcotest.(check int) "json: one envelope" 1 (List.length !frames)

(* a signal's [Interrupted] during a daemon request is not answered:
   it leaves [Server.step], so the daemon dies like a one-shot build *)
let test_interrupt_passes_through_daemon () =
  let dir =
    project_of
      [
        ( "spin.sml",
          "structure Spin = struct fun loop n = if n = 0 then 0 else loop (n \
           - 1) val x = loop 200000000 end" );
      ]
  in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let resp, _ = rpc srv c ~id:"b" (Protocol.Build (build_opts "sources.cm")) in
  Alcotest.(check int) "built" 0 resp.Protocol.r_code;
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> raise (Driver.Interrupted "SIGALRM")))
  in
  let disarm () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm previous
  in
  Fun.protect ~finally:disarm @@ fun () ->
  send c ~kind:Protocol.k_request ~id:"r"
    (Protocol.encode_request (Protocol.Run (build_opts "sources.cm")));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0.3 });
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "the interrupt never left the daemon"
    else
      match Server.step ~timeout_s:0.01 srv with
      | () -> go ()
      | exception Driver.Interrupted _ -> ()
  in
  go ();
  let chunk = Bytes.create 65536 in
  (match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | n -> c.buf <- c.buf ^ Bytes.sub_string chunk 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Alcotest.(check bool) "the interrupted Run got no answer" true
    (Frame.pop c.buf = None);
  disconnect c

(* the profile store's files under [dir] with their bytes, and its
   next id *)
let store_state dir =
  let pdir = Filename.concat dir Obs.Profile.default_dir in
  ( List.map
      (fun f ->
        (f, In_channel.with_open_bin (Filename.concat pdir f) In_channel.input_all))
      (List.sort String.compare (Array.to_list (Sys.readdir pdir))),
    Obs.Profile.next_id (Obs.Profile.load (Vfs.real ~dir)) )

(* after a real build, twenty null daemon requests (Build and Run in
   turn) and a null one-shot build leave the store byte-identical *)
let test_null_requests_write_no_profile () =
  let dir = fresh_hot_project () in
  with_server (test_config dir) @@ fun srv ->
  let c = client_of srv dir in
  let opts = build_opts "sources.cm" in
  let resp, _ = rpc srv c ~id:"r0" (Protocol.Run opts) in
  Alcotest.(check int) "the real build runs" 0 resp.Protocol.r_code;
  let before = store_state dir in
  for i = 1 to 20 do
    let id = Printf.sprintf "n%d" i in
    if i mod 2 = 0 then begin
      let resp, _ = rpc srv c ~id (Protocol.Run opts) in
      Alcotest.(check (pair int string))
        "null Run" (0, "30") (resp.Protocol.r_code, resp.Protocol.r_out)
    end
    else begin
      let resp, _ = rpc srv c ~id (Protocol.Build opts) in
      Alcotest.(check int) "null Build" 0 resp.Protocol.r_code;
      Alcotest.(check bool) "null Build compiled nothing" true
        (contains ~needle:"0 recompiled / 4 loaded" resp.Protocol.r_out)
    end
  done;
  let code, _, _, _ = inprocess ~run:false dir opts in
  Alcotest.(check int) "null one-shot build ok" 0 code;
  Alcotest.(check (pair (list (pair string string)) int))
    "the store is byte-identical" before (store_state dir);
  disconnect c

let suite =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "status and shutdown" `Quick test_status_and_shutdown;
    Alcotest.test_case "stale socket swept" `Quick test_stale_socket_swept;
    Alcotest.test_case "half-open socket times out" `Quick
      test_half_open_socket_times_out;
    Alcotest.test_case "version mismatch rejected" `Quick
      test_version_mismatch_rejected;
    Alcotest.test_case "garbage frames survived" `Quick
      test_garbage_frame_survived;
    Alcotest.test_case "wedged client dropped" `Quick
      test_wedged_client_dropped;
    Alcotest.test_case "daemon build = one-shot build" `Quick
      test_daemon_build_matches_oneshot;
    Alcotest.test_case "run over the socket" `Quick test_run_over_socket;
    Alcotest.test_case "diagnostics streamed as envelope" `Quick
      test_diagnostics_streamed_as_envelope;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "eager watch rebuild" `Quick test_eager_watch_rebuild;
    Alcotest.test_case "lazy invalidation" `Quick test_lazy_invalidation;
    Alcotest.test_case "lock basics" `Quick test_lock_basics;
    Alcotest.test_case "lock contention diagnostic" `Quick
      test_lock_contention_diagnostic;
    Alcotest.test_case "watch sweep" `Quick test_watch_sweep;
    Alcotest.test_case "interrupt records partial profile" `Quick
      test_interrupt_records_partial_profile;
    Alcotest.test_case "run: baseline = cold run" `Quick test_run_baseline;
    Alcotest.test_case "run: cross-unit print = cold run" `Quick
      test_run_cross_unit_print;
    Alcotest.test_case "run: pid-stable edit = cold run" `Quick
      test_run_pid_stable_edit;
    Alcotest.test_case "run: an edit decodes only the edited code" `Quick
      test_run_decodes_edited_code;
    Alcotest.test_case "run: interface edit re-executes cone" `Quick
      test_run_iface_edit_cone;
    Alcotest.test_case "run: interface edit = cold run" `Quick
      test_run_iface_edit;
    Alcotest.test_case "run: impl then interface edit" `Quick
      test_run_impl_then_iface_edit;
    Alcotest.test_case "run: shared ref = cold run" `Quick test_run_shared_ref;
    Alcotest.test_case "run: a null Run executes nothing" `Quick
      test_null_run_executes_nothing;
    Alcotest.test_case "run: seeded edit walk = cold run" `Quick
      test_run_edit_walk;
    Alcotest.test_case "pid-stable run = cold run" `Quick
      test_pid_stable_run_matches_cold_run;
    Alcotest.test_case "run failure = one-shot run" `Quick
      test_run_failure_matches_oneshot;
    Alcotest.test_case "run: failing first Run = one-shot" `Quick
      test_run_failing_program;
    Alcotest.test_case "probe detects a stale daemon" `Quick
      test_probe_stale_daemon;
    Alcotest.test_case "deleted unit invalidates the cone" `Quick
      test_deleted_unit_invalidates_cone;
    Alcotest.test_case "daemon survives network faults" `Quick
      test_daemon_survives_network_faults;
    Alcotest.test_case "in-process request = daemon request" `Quick
      test_inprocess_equals_daemon;
    Alcotest.test_case "exit-code table" `Quick test_exit_code_table;
    Alcotest.test_case "a one-shot trace covers lock and profile" `Quick
      test_oneshot_trace;
    Alcotest.test_case "interrupt passes through the daemon" `Quick
      test_interrupt_passes_through_daemon;
    Alcotest.test_case "lock rewrites a stale holder" `Quick
      test_lock_rewrites_stale_holder;
    Alcotest.test_case "null requests write no profile record" `Quick
      test_null_requests_write_no_profile;
  ]
