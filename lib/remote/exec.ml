module Frame = Pickle.Frame

type mode = Inline | Pool of Worker.config

type t = {
  srv : Netsrv.t;
  proto : Worker.proto;
  pool : Worker.t option;
  owners : (string, int) Hashtbl.t;  (** job id -> conn, for pool replies *)
  mutable served : int;
}

let m_jobs = Obs.Metrics.counter "exec.jobs"

let inflight t = Hashtbl.length t.owners

(* pool replies arrive asynchronously: route each result back to the
   connection that submitted the job.  A client that vanished mid-job
   just loses the reply — Netsrv.send drops silently. *)
let pump_pool t pool =
  (match Worker.pump pool with
  | () -> ()
  | exception Worker.Pool_down _ ->
    (* the pool cannot start workers at all: fail every job we hold so
       clients can retry elsewhere instead of timing out *)
    Hashtbl.iter
      (fun id conn ->
        Netsrv.send t.srv ~conn ~kind:Protocol.k_error ~id
          ~payload:
            (t.proto.Worker.p_encode_exn (Failure "executor pool is down")))
      t.owners;
    Hashtbl.reset t.owners);
  let rec drain () =
    match Worker.poll pool with
    | None -> ()
    | Some (id, res) ->
      (match Hashtbl.find_opt t.owners id with
      | Some conn -> (
        Hashtbl.remove t.owners id;
        match res with
        | Ok payload ->
          Netsrv.send t.srv ~conn ~kind:Protocol.k_result ~id ~payload
        | Error exn ->
          Netsrv.send t.srv ~conn ~kind:Protocol.k_error ~id
            ~payload:(t.proto.Worker.p_encode_exn exn))
      | None -> ());
      drain ()
  in
  drain ()

let on_job t ~conn (msg : Frame.msg) =
  Obs.Metrics.incr m_jobs;
  t.served <- t.served + 1;
  match t.pool with
  | Some pool ->
    Hashtbl.replace t.owners msg.f_id conn;
    Worker.submit pool ~id:msg.f_id msg.f_payload
  | None -> (
    (* inline: compile right here in the reactor turn *)
    match t.proto.Worker.p_handler ~id:msg.f_id msg.f_payload with
    | payload ->
      Netsrv.send t.srv ~conn ~kind:Protocol.k_result ~id:msg.f_id ~payload
    | exception exn ->
      Netsrv.send t.srv ~conn ~kind:Protocol.k_error ~id:msg.f_id
        ~payload:(t.proto.Worker.p_encode_exn exn))

let create ~mode addr proto =
  let srv = Netsrv.create ~version:Protocol.version_exec addr in
  let pool =
    match mode with
    | Inline -> None
    | Pool cfg -> Some (Worker.create cfg proto)
  in
  let t = { srv; proto; pool; owners = Hashtbl.create 16; served = 0 } in
  Netsrv.set_handler srv (fun ~conn msg ->
      if msg.Frame.f_kind = Protocol.k_job then on_job t ~conn msg
      else
        Netsrv.send srv ~conn ~kind:Protocol.k_error ~id:msg.Frame.f_id
          ~payload:(Printf.sprintf "unexpected frame kind %d" msg.Frame.f_kind));
  t

let addr t = Netsrv.addr t.srv

(* the pool's links share the reactor's wait: a child's result wakes
   the turn that relays it *)
let step ?(timeout_s = 0.) t =
  match t.pool with
  | None -> Netsrv.step ~timeout_s t.srv
  | Some pool ->
    let links, deadline = Worker.links pool in
    Netsrv.step ~extra:links
      ~timeout_s:(Float.min timeout_s (deadline -. Unix.gettimeofday ()))
      t.srv;
    (* stop() may land mid-step (a signal): the turn that observes it
       must not pump the pool it just shut down *)
    if Netsrv.running t.srv then pump_pool t pool

let running t = Netsrv.running t.srv

let run t =
  while running t do
    step ~timeout_s:0.05 t
  done

let stop t =
  (match t.pool with Some p -> Worker.shutdown p | None -> ());
  Netsrv.stop t.srv
