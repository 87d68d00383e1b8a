module Frame = Pickle.Frame
module Transport = Remote.Transport

exception Protocol_error of string
exception Timeout of string

type t = { conn : Transport.conn; mutable next_id : int }

let close t = Transport.close t.conn

(* the transport's failure modes, as the client's two exceptions: a
   deadline is a [Timeout], damage or an early close a
   [Protocol_error] *)
let io f =
  try f () with
  | Transport.Timed_out -> raise (Timeout "daemon did not respond in time")
  | Transport.Protocol_damage reason | Transport.Unreachable reason ->
    raise (Protocol_error reason)

let connect ?(state_dir = Protocol.default_state_dir) ?(timeout_s = 10.) ~dir
    () =
  match
    Transport.dial (Transport.Unix_sock (Protocol.socket_path ~dir ~state_dir))
  with
  | exception Transport.Unreachable _ ->
    (* no socket file, or one with nobody behind it: a dead daemon's
       leftover *)
    None
  | conn ->
    io (fun () ->
        Transport.greet conn ~version:Protocol.version
          ~deadline:(Unix.gettimeofday () +. timeout_s));
    Some { conn; next_id = 0 }

type probe =
  | Live of t
  | Stale of int option
  | Unresponsive of int
  | Absent

(* [probe] exists so `irm daemon status` can tell a SIGKILL'd daemon
   from a live one without hanging: a dead daemon leaves its pid and
   socket files behind, and connecting to the leftover socket fails
   fast (ECONNREFUSED) — so check the recorded pid with signal 0 and
   sweep the leftovers when nobody is home.  A pid that is alive but
   whose socket never answers is reported, not cleaned: it may be
   wedged mid-build and its files are still its own. *)
let probe ?(state_dir = Protocol.default_state_dir) ?(timeout_s = 2.) ~dir ()
    =
  let sock = Protocol.socket_path ~dir ~state_dir in
  let pidp = Protocol.pid_path ~dir ~state_dir in
  let pid =
    match In_channel.with_open_bin pidp In_channel.input_all with
    | contents -> int_of_string_opt (String.trim contents)
    | exception Sys_error _ -> None
  in
  (* a SIGKILL'd daemon may linger as a zombie until its reaper gets to
     it, and kill(pid, 0) succeeds on zombies — consult /proc state
     where available so the corpse still reads as dead *)
  let zombie p =
    match
      In_channel.with_open_bin
        (Printf.sprintf "/proc/%d/stat" p)
        In_channel.input_all
    with
    | stat -> (
      (* state is the first field after the parenthesised comm, which
         may itself contain spaces — split after the last ')' *)
      match String.rindex_opt stat ')' with
      | Some i when i + 2 < String.length stat -> stat.[i + 2] = 'Z'
      | _ -> false)
    | exception Sys_error _ -> false
  in
  let pid_alive =
    match pid with
    | None -> false
    | Some p -> (
      match Unix.kill p 0 with
      | () -> not (zombie p)
      | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
      | exception Unix.Unix_error _ -> false)
  in
  let sweep () =
    (try Unix.unlink sock with Unix.Unix_error _ -> ());
    try Unix.unlink pidp with Unix.Unix_error _ -> ()
  in
  let dead () =
    if pid_alive then Unresponsive (Option.get pid)
    else if Sys.file_exists sock || pid <> None then begin
      sweep ();
      Stale pid
    end
    else Absent
  in
  match connect ~state_dir ~timeout_s ~dir () with
  | Some c -> Live c
  | None -> dead ()
  | exception Timeout _ -> dead ()

let request ?(timeout_s = 600.) ?(on_diag = fun _ -> ()) t req =
  t.next_id <- t.next_id + 1;
  let id = string_of_int t.next_id in
  Transport.send t.conn ~kind:Protocol.k_request ~id
    ~payload:(Protocol.encode_request req);
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    let msg = io (fun () -> Transport.await t.conn ~deadline) in
    if msg.Frame.f_kind = Protocol.k_error then begin
      close t;
      raise (Protocol_error msg.Frame.f_payload)
    end
    else if not (String.equal msg.Frame.f_id id) then
      (* a response to an earlier, abandoned request: drop it *)
      wait ()
    else if msg.Frame.f_kind = Protocol.k_diag then begin
      on_diag msg.Frame.f_payload;
      wait ()
    end
    else if msg.Frame.f_kind = Protocol.k_response then
      Protocol.decode_response msg.Frame.f_payload
    else raise (Protocol_error "daemon sent an unexpected frame kind")
  in
  wait ()
