module Frame = Pickle.Frame

type conn_state = {
  n_id : int;
  n_fd : Unix.file_descr;
  n_in : Frame.Stream.t;
  n_out : Frame.Stream.t;
  mutable n_hello : bool;
  mutable n_close_after_flush : bool;
  mutable n_alive : bool;
  mutable n_last_io : float;
}

type t = {
  version : string;
  listen_fd : Unix.file_descr;
  bound : Transport.addr;
  client_timeout_s : float;
  mutable handler : (conn:int -> Frame.msg -> unit) option;
  mutable on_step : (unit -> unit) option;
  mutable conns : conn_state list;
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
    on_step = None;
    conns = [];
    next_id = 0;
    running = true;
  }

let addr t = t.bound
let set_handler t f = t.handler <- Some f
let set_on_step t f = t.on_step <- Some f

let drop conn =
  if conn.n_alive then begin
    conn.n_alive <- false;
    Frame.Stream.clear conn.n_in;
    Frame.Stream.clear conn.n_out;
    try Unix.close conn.n_fd with Unix.Unix_error _ -> ()
  end

let find_conn t id =
  List.find_opt (fun c -> c.n_alive && c.n_id = id) t.conns

let send_conn conn ~kind ~id ~payload =
  if conn.n_alive then
    Frame.Stream.add_string conn.n_out (Frame.encode ~kind ~id ~payload)

let send t ~conn ~kind ~id ~payload =
  match find_conn t conn with
  | Some c -> send_conn c ~kind ~id ~payload
  | None -> ()

(* the peer-gone probe: MSG_PEEK, so pipelined request bytes mean the
   peer is alive; only EOF or a broken socket counts as gone *)
let conn_alive t ~conn =
  match find_conn t conn with
  | None -> false
  | Some c -> (
    match Unix.recv c.n_fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] with
    | 0 -> false
    | _ -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      true
    | exception Unix.Unix_error _ -> false)

let connections t = List.length (List.filter (fun c -> c.n_alive) t.conns)
let drained t =
  List.for_all
    (fun c -> (not c.n_alive) || Frame.Stream.length c.n_out = 0)
    t.conns

let handle_msg t conn (msg : Frame.msg) =
  Obs.Metrics.incr m_frames;
  if not conn.n_hello then
    if msg.f_kind = Protocol.k_hello then
      if String.equal msg.f_payload t.version then begin
        conn.n_hello <- true;
        send_conn conn ~kind:Protocol.k_hello ~id:msg.f_id ~payload:t.version
      end
      else begin
        send_conn conn ~kind:Protocol.k_error ~id:msg.f_id
          ~payload:
            (Printf.sprintf "version mismatch: service %s, client %s"
               t.version msg.f_payload);
        conn.n_close_after_flush <- true
      end
    else begin
      send_conn conn ~kind:Protocol.k_error ~id:msg.f_id
        ~payload:"expected a HELLO frame";
      conn.n_close_after_flush <- true
    end
  else if msg.f_kind = Protocol.k_ping then
    send_conn conn ~kind:Protocol.k_ping ~id:msg.f_id ~payload:msg.f_payload
  else
    match t.handler with
    | None ->
      send_conn conn ~kind:Protocol.k_error ~id:msg.f_id
        ~payload:"service has no handler"
    | Some f -> (
      match f ~conn:conn.n_id msg with
      | () -> ()
      | exception exn ->
        send_conn conn ~kind:Protocol.k_error ~id:msg.f_id
          ~payload:("service failure: " ^ Printexc.to_string exn);
        conn.n_close_after_flush <- true)

(* a peer feeding us garbage gets a best-effort error frame and a
   close — never an exception out of the reactor *)
let rec parse_conn t conn =
  if conn.n_alive && not conn.n_close_after_flush then
    match Frame.Stream.pop conn.n_in with
    | exception Pickle.Buf.Corrupt reason ->
      Frame.Stream.clear conn.n_in;
      send_conn conn ~kind:Protocol.k_error ~id:""
        ~payload:("corrupt frame: " ^ reason);
      conn.n_close_after_flush <- true
    | None -> ()
    | Some msg ->
      handle_msg t conn msg;
      parse_conn t conn

let read_conn t conn =
  let rec go () =
    match Frame.Stream.fill conn.n_in ~chunk:65536 (Unix.read conn.n_fd) with
    | 0 -> drop conn
    | _ ->
      conn.n_last_io <- Unix.gettimeofday ();
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> drop conn
  in
  go ();
  if conn.n_alive then parse_conn t conn

let flush_conn conn =
  let rec go () =
    if conn.n_alive && Frame.Stream.length conn.n_out > 0 then
      match Frame.Stream.drain conn.n_out (Unix.write conn.n_fd) with
      | _ ->
        conn.n_last_io <- Unix.gettimeofday ();
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> drop conn
  in
  go ();
  if
    conn.n_alive
    && Frame.Stream.length conn.n_out = 0
    && conn.n_close_after_flush
  then drop conn

let accept_conns t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      Obs.Metrics.incr m_conns;
      t.next_id <- t.next_id + 1;
      t.conns <-
        {
          n_id = t.next_id;
          n_fd = fd;
          n_in = Frame.Stream.create ();
          n_out = Frame.Stream.create ();
          n_hello = false;
          n_close_after_flush = false;
          n_alive = true;
          n_last_io = Unix.gettimeofday ();
        }
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
        c.n_alive
        && (Frame.Stream.length c.n_in > 0
           || Frame.Stream.length c.n_out > 0
           || not c.n_hello)
        && now -. c.n_last_io > t.client_timeout_s
      then begin
        Obs.Metrics.incr m_dropped;
        drop c
      end)
    t.conns

let step ?(timeout_s = 0.) t =
  if t.running then begin
    drop_wedged t;
    let live = List.filter (fun c -> c.n_alive) t.conns in
    let reads = t.listen_fd :: List.map (fun c -> c.n_fd) live in
    let writes =
      List.filter_map
        (fun c ->
          if Frame.Stream.length c.n_out > 0 then Some c.n_fd else None)
        live
    in
    let readable, writable, _ =
      try Unix.select reads writes [] timeout_s
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.memq t.listen_fd readable then accept_conns t;
    List.iter
      (fun c ->
        if c.n_alive && List.memq c.n_fd readable then read_conn t c)
      live;
    List.iter
      (fun c ->
        if
          c.n_alive
          && (List.memq c.n_fd writable || Frame.Stream.length c.n_out > 0)
        then
          flush_conn c)
      live;
    t.conns <- List.filter (fun c -> c.n_alive) t.conns;
    Obs.Metrics.set g_clients (List.length t.conns);
    match t.on_step with Some f -> f () | None -> ()
  end

let running t = t.running

let stop t =
  if t.running then begin
    t.running <- false;
    List.iter drop t.conns;
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
