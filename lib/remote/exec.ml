module Frame = Pickle.Frame

type mode = Inline | Pool of Pool.config

type t = {
  srv : Netsrv.t;
  proto : Pool.proto;
  pool : Pool.t option;
  owners : (string, int) Hashtbl.t;  (** job id -> conn, for pool replies *)
}

let m_jobs = Obs.Metrics.counter "exec.jobs"

let reply t ~conn ~id (kind, payload) =
  Netsrv.send t.srv ~conn ~kind ~id ~payload

let fail t ~conn ~id exn =
  reply t ~conn ~id (Protocol.k_error, t.proto.p_encode_exn exn)

(* pool replies arrive asynchronously: route each result back to the
   connection that submitted the job.  A client that vanished mid-job
   just loses the reply — Netsrv.send drops silently. *)
let rec relay t pool =
  match Pool.poll pool with
  | None -> ()
  | Some (id, res) ->
    (match (Hashtbl.find_opt t.owners id, res) with
    | Some conn, Ok payload -> reply t ~conn ~id (Protocol.k_result, payload)
    | Some conn, Error exn -> fail t ~conn ~id exn
    | None, _ -> ());
    Hashtbl.remove t.owners id;
    relay t pool

let pump_pool t pool =
  (try Pool.pump pool
   with Pool.Pool_down _ ->
     (* the pool cannot start workers at all: fail every job we hold so
        clients can retry elsewhere instead of timing out *)
     Hashtbl.iter
       (fun id conn -> fail t ~conn ~id (Failure "executor pool is down"))
       t.owners;
     Hashtbl.reset t.owners);
  relay t pool

let on_job t ~conn (msg : Frame.msg) =
  Obs.Metrics.incr m_jobs;
  match t.pool with
  | Some pool ->
    Hashtbl.replace t.owners msg.f_id conn;
    Pool.submit pool ~id:msg.f_id msg.f_payload
  | None ->
    (* inline: compile right here in the reactor turn *)
    reply t ~conn ~id:msg.f_id (Pool.answer t.proto ~id:msg.f_id msg.f_payload)

let create ~mode addr proto =
  let srv = Netsrv.create ~version:Protocol.version_exec addr in
  let pool =
    match mode with Inline -> None | Pool cfg -> Some (Pool.create cfg proto)
  in
  let t = { srv; proto; pool; owners = Hashtbl.create 16 } in
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
    let links, deadline = Pool.links pool in
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
  Option.iter Pool.shutdown t.pool;
  Netsrv.stop t.srv
