module Frame = Pickle.Frame

type client = {
  n_id : int;
  n_conn : Transport.conn;
  mutable n_hello : bool;
}

type t = {
  version : string;
  listen_fd : Unix.file_descr;
  bound : Transport.addr;
  client_timeout_s : float;
  mutable handler : (conn:int -> Frame.msg -> unit) option;
  mutable conns : client list;
  mutable next_id : int;
  mutable running : bool;
}

let m_conns = Obs.Metrics.counter "netsrv.connections"
let m_frames = Obs.Metrics.counter "netsrv.frames"
let m_dropped = Obs.Metrics.counter "netsrv.clients_dropped"
let g_clients = Obs.Metrics.gauge "netsrv.clients"

let create ?(client_timeout_s = 30.) ~version addr =
  let fd = Transport.listen addr in
  {
    version;
    listen_fd = fd;
    bound = Transport.bound_addr fd addr;
    client_timeout_s;
    handler = None;
    conns = [];
    next_id = 0;
    running = true;
  }

let addr t = t.bound
let set_handler t f = t.handler <- Some f

let alive c =
  match Transport.status c.n_conn with
  | Transport.Up -> true
  | Transport.Connecting | Transport.Closed _ -> false

(* a closed connection drops what is sent to it and has no fd *)
let find_conn t id = List.find_opt (fun c -> c.n_id = id) t.conns

let send t ~conn ~kind ~id ~payload =
  match find_conn t conn with
  | Some c -> Transport.send c.n_conn ~kind ~id ~payload
  | None -> ()

let connections t = List.length (List.filter alive t.conns)

let drained t =
  List.for_all (fun c -> snd (Transport.buffered c.n_conn) = 0) t.conns

(* a last word, then the connection closes once it has left *)
let refuse c ~id reason =
  Transport.send c.n_conn ~kind:Protocol.k_error ~id ~payload:reason;
  Transport.close_after_flush c.n_conn

let handle_msg t c (msg : Frame.msg) =
  Obs.Metrics.incr m_frames;
  if not c.n_hello then
    if msg.f_kind <> Protocol.k_hello then
      refuse c ~id:msg.f_id "expected a HELLO frame"
    else if String.equal msg.f_payload t.version then begin
      c.n_hello <- true;
      Transport.send c.n_conn ~kind:Protocol.k_hello ~id:msg.f_id
        ~payload:t.version
    end
    else
      refuse c ~id:msg.f_id
        (Printf.sprintf "version mismatch: service %s, client %s" t.version
           msg.f_payload)
  else if msg.f_kind = Protocol.k_ping then
    Transport.send c.n_conn ~kind:Protocol.k_ping ~id:msg.f_id
      ~payload:msg.f_payload
  else
    match t.handler with
    | None ->
      Transport.send c.n_conn ~kind:Protocol.k_error ~id:msg.f_id
        ~payload:"service has no handler"
    | Some f -> (
      match f ~conn:c.n_id msg with
      | () -> ()
      | exception exn ->
        refuse c ~id:msg.f_id ("service failure: " ^ Printexc.to_string exn))

(* read, dispatch every complete frame, flush.  A peer feeding us
   garbage gets a best-effort error frame and a close — never an
   exception out of the reactor *)
let serve t c =
  Transport.poll c.n_conn;
  let rec go () =
    match Transport.recv c.n_conn with
    | exception Transport.Protocol_damage reason ->
      refuse c ~id:"" ("corrupt frame: " ^ reason)
    | None -> ()
    | Some msg ->
      handle_msg t c msg;
      go ()
  in
  (* a request whose client has already hung up is not served *)
  if alive c then go ()

let accept_conns t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
      Obs.Metrics.incr m_conns;
      t.next_id <- t.next_id + 1;
      t.conns <-
        { n_id = t.next_id; n_conn = Transport.of_fd fd; n_hello = false }
        :: t.conns;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* the watchdog: a peer holding half a frame, not draining its output,
   or never greeting, past the idle timeout is wedged — drop it, as the
   worker supervisor drops a silent child.  A greeted idle connection
   is a client between requests and stays. *)
let drop_wedged t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if
        alive c
        && (Transport.buffered c.n_conn <> (0, 0) || not c.n_hello)
        && now -. Transport.last_io c.n_conn > t.client_timeout_s
      then begin
        Obs.Metrics.incr m_dropped;
        Transport.close c.n_conn
      end)
    t.conns

let step ?(timeout_s = 0.) ?(extra = []) t =
  if t.running then begin
    drop_wedged t;
    t.conns <- List.filter alive t.conns;
    Transport.wait ~listener:t.listen_fd
      (List.map (fun c -> c.n_conn) t.conns @ extra)
      ~timeout_s;
    (* a signal may have stopped the service during the wait *)
    if t.running then begin
      accept_conns t;
      List.iter (serve t) t.conns;
      t.conns <- List.filter alive t.conns;
      Obs.Metrics.set g_clients (List.length t.conns)
    end
  end

let running t = t.running

let stop t =
  if t.running then begin
    t.running <- false;
    List.iter (fun c -> Transport.close c.n_conn) t.conns;
    t.conns <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match addr t with
    | Transport.Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | Transport.Tcp _ -> ()
  end

let run t =
  while t.running do
    step ~timeout_s:0.05 t
  done
