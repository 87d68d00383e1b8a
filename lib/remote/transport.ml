module Frame = Pickle.Frame

type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  let prefix p = String.length s > String.length p && String.starts_with ~prefix:p s in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefix "unix:" then Ok (Unix_sock (after "unix:"))
  else if prefix "tcp:" then begin
    let rest = after "tcp:" in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "bad tcp address %S (want tcp:HOST:PORT)" s)
    | Some i -> (
      let host = String.sub rest 0 i in
      match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
      | Some port when host <> "" -> Ok (Tcp (host, port))
      | _ -> Error (Printf.sprintf "bad tcp address %S (want tcp:HOST:PORT)" s))
  end
  else if s = "" then Error "empty address"
  else Ok (Unix_sock s)

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

exception Unreachable of string
exception Protocol_damage of string
exception Timed_out

(* a peer that hangs up while we write must surface as EPIPE on that
   one connection, not kill the process: every process that listens,
   dials or wraps a socket ignores SIGPIPE *)
let ignore_sigpipe () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found | Invalid_argument _ ->
        raise (Unreachable (Printf.sprintf "unknown host %s" host))
    in
    Unix.ADDR_INET (ip, port)

let domain_of = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let listen ?(backlog = 16) addr =
  ignore_sigpipe ();
  (match addr with
  | Unix_sock path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix_sock _ | Tcp _ -> ());
  let fd = Unix.socket ~cloexec:true (domain_of addr) Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind fd (sockaddr_of addr);
     Unix.listen fd backlog;
     Unix.set_nonblock fd
   with
  | Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise
      (Unreachable
         (Printf.sprintf "cannot listen on %s: %s" (addr_to_string addr)
            (Unix.error_message e)))
  | exn ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise exn);
  fd

let bound_addr fd addr =
  match (addr, Unix.getsockname fd) with
  | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
  | (Unix_sock _ | Tcp _), _ -> addr

type status = Connecting | Up | Closed of string

type conn = {
  mutable c_fd : Unix.file_descr option;
  mutable c_status : status;
  mutable c_peer : Unix.sockaddr option;  (** where a dial connects *)
  c_in : Frame.Stream.t;
  c_out : Frame.Stream.t;
  mutable c_held : (float * Frame.msg) option;
      (** a chaos-duplicated or chaos-delayed frame and the moment it
          arrives; the rest of the stream waits behind it *)
  mutable c_ready_at : float;
      (** chaos delay gate: no connect and no output before this *)
  mutable c_kill_after_flush : string option;
      (** close, for this reason, once the output has flushed *)
  mutable c_last_io : float;  (** when bytes last moved *)
  c_chaos : Netchaos.injector option;
}

let m_dials = Obs.Metrics.counter "remote.dials"
let m_bytes_in = Obs.Metrics.counter "remote.bytes_in"
let m_bytes_out = Obs.Metrics.counter "remote.bytes_out"
let m_chaos = Obs.Metrics.counter "remote.chaos_faults"

let close_fd t =
  match t.c_fd with
  | Some fd ->
    t.c_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let kill t reason =
  (match t.c_status with
  | Closed _ -> ()
  | Connecting | Up -> t.c_status <- Closed reason);
  Frame.Stream.clear t.c_out;
  close_fd t

let fire t op =
  match t.c_chaos with
  | None -> None
  | Some inj ->
    let f = Netchaos.fire inj op in
    (match f with
    | Some fault ->
      Obs.Metrics.incr m_chaos;
      Obs.Trace.instant ~cat:"remote"
        ~args:
          [ ("op", Netchaos.op_name op); ("fault", Netchaos.fault_name fault) ]
        "remote.chaos"
    | None -> ());
    f

let make status fd chaos =
  ignore_sigpipe ();
  {
    c_fd = fd;
    c_status = status;
    c_peer = None;
    c_in = Frame.Stream.create ();
    c_out = Frame.Stream.create ();
    c_held = None;
    c_ready_at = 0.;
    c_kill_after_flush = None;
    c_last_io = Unix.gettimeofday ();
    c_chaos = chaos;
  }

let of_fd ?chaos fd =
  Unix.set_nonblock fd;
  make Up (Some fd) chaos

(* the nonblocking connect, true once connected.  [poll] issues it
   again until then: EAGAIN means a full Unix listen backlog refused to
   start it, EINPROGRESS/EALREADY that a TCP handshake is under way *)
let connect fd sa =
  match Unix.connect fd sa with
  | () | (exception Unix.Unix_error (Unix.EISCONN, _, _)) -> true
  | exception
      Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINPROGRESS | Unix.EALREADY
          | Unix.EINTR ),
          _,
          _ ) ->
    false

let dial ?chaos addr =
  Obs.Metrics.incr m_dials;
  let t = make Connecting None chaos in
  (match fire t Netchaos.Connect with
  | Some Netchaos.Refuse ->
    raise (Unreachable ("chaos: connection refused by " ^ addr_to_string addr))
  | Some (Netchaos.Delay d) -> t.c_ready_at <- Unix.gettimeofday () +. d
  | Some
      ( Netchaos.Reset | Netchaos.Black_hole | Netchaos.Truncate_frame
      | Netchaos.Duplicate_response )
  | None -> ());
  let fd = Unix.socket ~cloexec:true (domain_of addr) Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  t.c_fd <- Some fd;
  (match
     let sa = sockaddr_of addr in
     t.c_peer <- Some sa;
     connect fd sa
   with
  | true -> if t.c_ready_at = 0. then t.c_status <- Up
  | false -> ()
  | exception Unix.Unix_error (e, _, _) ->
    close_fd t;
    raise
      (Unreachable
         (Printf.sprintf "%s: %s" (addr_to_string addr) (Unix.error_message e)))
  | exception exn ->
    close_fd t;
    raise exn);
  t

let status t = t.c_status

(* an unconnected Unix socket polls ready at once: nothing to select on
   until the connect completes *)
let fd t = match t.c_status with Up -> t.c_fd | Connecting | Closed _ -> None
let buffered t = (Frame.Stream.length t.c_in, Frame.Stream.length t.c_out)
let last_io t = t.c_last_io

let held_out t = Unix.gettimeofday () < t.c_ready_at

(* output waits for the connect, as an unconnected socket refuses
   writes, and for a chaos-delayed frame's time *)
let flush t =
  match (t.c_status, t.c_fd) with
  | (Connecting | Closed _), _ | Up, None -> ()
  | Up, Some _ when held_out t -> ()
  | Up, Some fd -> (
    let rec go () =
      if Frame.Stream.length t.c_out > 0 then
        match Frame.Stream.drain t.c_out (Unix.write fd) with
        | n ->
          Obs.Metrics.add m_bytes_out n;
          t.c_last_io <- Unix.gettimeofday ();
          go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (e, _, _) ->
          kill t (Printf.sprintf "write failed: %s" (Unix.error_message e))
    in
    go ();
    match t.c_kill_after_flush with
    | Some reason when Frame.Stream.length t.c_out = 0 -> kill t reason
    | Some _ | None -> ())

let close_after_flush t =
  if t.c_kill_after_flush = None then t.c_kill_after_flush <- Some "closed";
  flush t

let read_in t =
  match t.c_fd with
  | None -> ()
  | Some fd ->
    let rec go () =
      match Frame.Stream.fill t.c_in ~chunk:65536 (Unix.read fd) with
      | 0 -> kill t "peer closed the connection"
      | n ->
        Obs.Metrics.add m_bytes_in n;
        t.c_last_io <- Unix.gettimeofday ();
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, _, _) ->
        kill t (Printf.sprintf "read failed: %s" (Unix.error_message e))
    in
    go ()

let poll t =
  match t.c_status with
  | Closed _ -> ()
  | Connecting -> (
    match (t.c_fd, t.c_peer) with
    | Some fd, Some sa -> (
      if Unix.gettimeofday () >= t.c_ready_at then
        match connect fd sa with
        | true ->
          t.c_status <- Up;
          flush t
        | false -> ()
        | exception Unix.Unix_error (e, _, _) ->
          kill t (Printf.sprintf "connect failed: %s" (Unix.error_message e)))
    | (Some _ | None), _ -> kill t "no socket")
  | Up ->
    read_in t;
    flush t

let send t ~kind ~id ~payload =
  match t.c_status with
  | Closed _ -> ()
  | Connecting | Up -> (
    let frame = Frame.encode ~kind ~id ~payload in
    match fire t Netchaos.Send with
    | Some Netchaos.Reset -> kill t "chaos: connection reset"
    | Some Netchaos.Black_hole ->
      (* the frame vanishes on the wire; the connection itself lives *)
      ()
    | Some Netchaos.Truncate_frame ->
      Frame.Stream.add_string t.c_out
        (String.sub frame 0 (String.length frame / 2));
      t.c_kill_after_flush <- Some "chaos: connection reset mid-frame";
      flush t
    | Some (Netchaos.Delay d) ->
      (* the frame leaves late, and what is sent after it waits behind
         it; this connection alone is held *)
      flush t;
      t.c_ready_at <- Float.max t.c_ready_at (Unix.gettimeofday () +. d);
      Frame.Stream.add_string t.c_out frame
    | Some (Netchaos.Refuse | Netchaos.Duplicate_response) | None ->
      Frame.Stream.add_string t.c_out frame;
      flush t)

let rec recv t =
  match (t.c_held, t.c_kill_after_flush) with
  | _, Some _ -> None (* closing: nothing more is delivered *)
  | Some (at, msg), None when Unix.gettimeofday () >= at ->
    t.c_held <- None;
    Some msg
  | Some _, None -> None
  | None, None -> (
    match Frame.Stream.pop t.c_in with
    | exception Pickle.Buf.Corrupt reason ->
      (* the rest of the stream is noise; queued output (a server's
         error frame, say) still leaves before the close *)
      Frame.Stream.clear t.c_in;
      t.c_kill_after_flush <- Some ("corrupt frame: " ^ reason);
      raise (Protocol_damage reason)
    | None -> None
    | Some msg -> (
      match fire t Netchaos.Recv with
      | Some Netchaos.Reset ->
        kill t "chaos: connection reset";
        None
      | Some Netchaos.Black_hole ->
        (* this frame never arrives; later ones may *)
        recv t
      | Some Netchaos.Duplicate_response ->
        t.c_held <- Some (0., msg);
        Some msg
      | Some (Netchaos.Delay d) ->
        (* the frame arrives late; this connection alone waits for it *)
        t.c_held <- Some (Unix.gettimeofday () +. d, msg);
        recv t
      | Some (Netchaos.Refuse | Netchaos.Truncate_frame) | None -> Some msg))

let close t = kill t "closed"

(* reads the connections, never changes them: a signal handler may send
   on one meanwhile (and even close it, hence EBADF) *)
let wait ?listener conns ~timeout_s =
  let rd = ref (Option.to_list listener) and wr = ref [] in
  let connecting = ref false and closed = ref false in
  let timeout_s = ref timeout_s in
  List.iter
    (fun t ->
      Option.iter
        (fun (at, _) ->
          timeout_s := Float.min !timeout_s (at -. Unix.gettimeofday ()))
        t.c_held;
      match (fd t, t.c_status) with
      | Some fd, _ ->
        rd := fd :: !rd;
        if Frame.Stream.length t.c_out > 0 then
          if held_out t then
            timeout_s :=
              Float.min !timeout_s (t.c_ready_at -. Unix.gettimeofday ())
          else wr := fd :: !wr
      | None, Connecting -> connecting := true
      | None, (Up | Closed _) -> closed := true)
    conns;
  if not !closed then
    let timeout_s =
      if !connecting then Float.min 0.01 !timeout_s else !timeout_s
    in
    try
      ignore
        (Unix.select !rd !wr []
           (if timeout_s = infinity then -1. else Float.max 0. timeout_s))
    with Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()

let rec await ?tick t ~deadline =
  Option.iter (fun f -> f ()) tick;
  match recv t with
  | Some msg -> msg
  | None -> (
    let now = Unix.gettimeofday () in
    (* an EOF observed at or past the deadline is the timeout it raced:
       a peer dying exactly at the budget boundary reads as one that
       did not answer in time *)
    if now >= deadline then raise Timed_out;
    match t.c_status with
    | Closed reason -> raise (Unreachable reason)
    | Connecting | Up ->
      wait [ t ] ~timeout_s:(Float.min 0.01 (deadline -. now));
      poll t;
      await ?tick t ~deadline)

let greet ?tick t ~version ~deadline =
  let refuse reason =
    kill t reason;
    raise (Protocol_damage reason)
  in
  send t ~kind:Protocol.k_hello ~id:"" ~payload:version;
  match await ?tick t ~deadline with
  | msg when msg.Frame.f_kind = Protocol.k_error -> refuse msg.Frame.f_payload
  | msg when msg.Frame.f_kind <> Protocol.k_hello ->
    refuse "peer did not answer the handshake"
  | msg when not (String.equal msg.Frame.f_payload version) ->
    refuse
      (Printf.sprintf "peer speaks %s, this client speaks %s"
         msg.Frame.f_payload version)
  | _ -> ()
  | exception exn ->
    kill t "handshake failed";
    raise exn
