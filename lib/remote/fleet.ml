module Frame = Pickle.Frame

type failure =
  | Unreachable of { rf_attempts : int; rf_detail : string }
  | Protocol of { rf_detail : string }

type config = {
  r_execs : Transport.addr list;
  r_slots : int;
  r_job_timeout_s : float;
  r_dial_timeout_s : float;
  r_retries : int;
  r_hedge_s : float;
  r_quarantine : int;
  r_backoff_s : float;
  r_backoff_cap_s : float;
  r_chaos : Netchaos.plan;
  r_tick : (unit -> unit) option;
  r_local_fallback : bool;
  r_log : string -> unit;
  r_fail : id:string -> failure -> exn;
}

let default_fail ~id = function
  | Unreachable { rf_attempts; rf_detail } ->
    Failure
      (Printf.sprintf "remote executors unreachable for %s (%s; %d attempts)"
         id rf_detail rf_attempts)
  | Protocol { rf_detail } ->
    Failure (Printf.sprintf "remote protocol error for %s: %s" id rf_detail)

let default_config ~execs =
  {
    r_execs = execs;
    r_slots = 2;
    r_job_timeout_s = 30.;
    r_dial_timeout_s = 5.;
    r_retries = 2;
    r_hedge_s = 10.;
    r_quarantine = 3;
    r_backoff_s = 0.05;
    r_backoff_cap_s = 2.;
    r_chaos = Option.value ~default:[] (Netchaos.of_env ());
    r_tick = None;
    r_local_fallback = true;
    r_log = prerr_endline;
    r_fail = default_fail;
  }

type exec_state =
  | Redial of float  (** dial (again) once this moment passes *)
  | Dialing of { dx_conn : Transport.conn; dx_deadline : float }
  | Greeting of { dx_conn : Transport.conn; dx_deadline : float }
  | Ready of Transport.conn
  | Quarantined of string

(* a dispatched copy of a job: which executor runs it and its clocks *)
type copy = { cp_exec : int; cp_t0 : float; cp_deadline : float }

type jobst = {
  js_payload : string;
  mutable js_attempts : int;  (** copies that failed so far *)
  mutable js_copies : copy list;
  mutable js_last : failure;  (** what to blame if attempts run out *)
}

type t = {
  cfg : config;
  proto : Worker.proto;
  addrs : Transport.addr array;
  states : exec_state array;
  fails : int array;  (** consecutive failures, for quarantine *)
  dials : int array;  (** redial attempts, for backoff *)
  busy : float array;
  chaos : Netchaos.injector option;
  backoff : Support.Backoff.t;
  jobs : (string, jobst) Hashtbl.t;
  queue : string Queue.t;
  results : Worker.completion Queue.t;
  done_ : (string, unit) Hashtbl.t;
  mutable degraded : bool;
  mutable warned_fallback : bool;
  mutable closed : bool;
}

let m_dispatched = Obs.Metrics.counter "fleet.dispatched"
let m_requeued = Obs.Metrics.counter "fleet.requeued"
let m_hedged = Obs.Metrics.counter "fleet.hedged"
let m_quarantined = Obs.Metrics.counter "fleet.quarantined"
let m_fallback = Obs.Metrics.counter "fleet.local_fallback_jobs"

let create cfg proto =
  let addrs = Array.of_list cfg.r_execs in
  let n = Array.length addrs in
  {
    cfg;
    proto;
    addrs;
    states = Array.make n (Redial 0.);
    fails = Array.make n 0;
    dials = Array.make n 0;
    busy = Array.make (max 1 n) 0.;
    chaos =
      (match cfg.r_chaos with
      | [] -> None
      | plan -> Some (Netchaos.injector plan));
    backoff =
      Support.Backoff.create ~base_s:cfg.r_backoff_s
        ~cap_s:cfg.r_backoff_cap_s ();
    jobs = Hashtbl.create 64;
    queue = Queue.create ();
    results = Queue.create ();
    done_ = Hashtbl.create 64;
    degraded = n = 0;
    warned_fallback = false;
    closed = false;
  }

let exec_name t i = Transport.addr_to_string t.addrs.(i)
let pending t = Hashtbl.length t.jobs + Queue.length t.results
let degraded t = t.degraded

let quarantined t =
  Array.fold_left
    (fun acc -> function Quarantined _ -> acc + 1 | _ -> acc)
    0 t.states

let load t i =
  Hashtbl.fold
    (fun _ js acc ->
      acc + List.length (List.filter (fun c -> c.cp_exec = i) js.js_copies))
    t.jobs 0

(* ------------------------------------------------------------------ *)
(* Completion and failure bookkeeping                                  *)
(* ------------------------------------------------------------------ *)

(* first answer wins: hedged duplicates and chaos-duplicated frames
   find the id already done and are discarded *)
let job_done t id res =
  if not (Hashtbl.mem t.done_ id) then begin
    (match Hashtbl.find_opt t.jobs id with
    | Some js ->
      let now = Unix.gettimeofday () in
      List.iter
        (fun c ->
          if c.cp_exec < Array.length t.busy then
            t.busy.(c.cp_exec) <-
              t.busy.(c.cp_exec) +. Float.max 0. (now -. c.cp_t0))
        js.js_copies;
      Hashtbl.remove t.jobs id
    | None -> ());
    Hashtbl.replace t.done_ id ();
    Queue.push (id, res) t.results
  end

(* compile in-process: purity makes the bytes identical to any
   executor's, so degradation costs wall-clock, never correctness *)
let run_local t id js =
  if not t.warned_fallback then begin
    t.warned_fallback <- true;
    t.cfg.r_log
      "warning: remote executors unavailable; continuing with local compiles"
  end;
  Obs.Metrics.incr m_fallback;
  let t0 = Unix.gettimeofday () in
  let res =
    match t.proto.Worker.p_handler ~id js.js_payload with
    | payload -> Ok payload
    | exception exn -> Error exn
  in
  t.busy.(0) <- t.busy.(0) +. (Unix.gettimeofday () -. t0);
  job_done t id res

(* a copy failed: requeue for another executor, exhaust into local
   fallback or an E0703/E0704 failure *)
let requeue t id js =
  if not (Hashtbl.mem t.done_ id) then begin
    js.js_attempts <- js.js_attempts + 1;
    if js.js_attempts > t.cfg.r_retries then
      if t.cfg.r_local_fallback then run_local t id js
      else job_done t id (Error (t.cfg.r_fail ~id js.js_last))
    else begin
      Obs.Metrics.incr m_requeued;
      Queue.push id t.queue
    end
  end

(* executor [i] misbehaved: tear the connection down, requeue its
   copies, count toward quarantine, schedule a redial *)
let exec_fail t i ~proto_fault ~detail =
  (match t.states.(i) with
  | Dialing { dx_conn; _ } | Greeting { dx_conn; _ } | Ready dx_conn ->
    Transport.close dx_conn
  | Redial _ | Quarantined _ -> ());
  let now = Unix.gettimeofday () in
  let orphans =
    Hashtbl.fold
      (fun id js acc ->
        if List.exists (fun c -> c.cp_exec = i) js.js_copies then
          (id, js) :: acc
        else acc)
      t.jobs []
  in
  List.iter
    (fun (id, js) ->
      js.js_copies <- List.filter (fun c -> c.cp_exec <> i) js.js_copies;
      js.js_last <-
        (if proto_fault then Protocol { rf_detail = detail }
         else
           Unreachable { rf_attempts = js.js_attempts + 1; rf_detail = detail });
      (* a hedged twin may still be running elsewhere; only requeue
         when this was the last live copy *)
      if js.js_copies = [] then requeue t id js)
    orphans;
  t.fails.(i) <- t.fails.(i) + 1;
  if t.fails.(i) >= t.cfg.r_quarantine then begin
    Obs.Metrics.incr m_quarantined;
    t.cfg.r_log
      (Printf.sprintf "remote: executor %s quarantined (%s)" (exec_name t i)
         detail);
    Obs.Trace.instant ~cat:"remote"
      ~args:[ ("exec", exec_name t i); ("detail", detail) ]
      "remote.quarantine";
    t.states.(i) <- Quarantined detail
  end
  else begin
    t.dials.(i) <- t.dials.(i) + 1;
    t.states.(i) <-
      Redial (now +. Support.Backoff.delay t.backoff ~attempt:(t.dials.(i) - 1))
  end

(* ------------------------------------------------------------------ *)
(* Connection state machine                                            *)
(* ------------------------------------------------------------------ *)

let start_dial t i =
  match Transport.dial ?chaos:t.chaos t.addrs.(i) with
  | conn ->
    let dx_deadline = Unix.gettimeofday () +. t.cfg.r_dial_timeout_s in
    t.states.(i) <- Dialing { dx_conn = conn; dx_deadline }
  | exception Transport.Unreachable reason ->
    exec_fail t i ~proto_fault:false ~detail:reason

let drain_ready t i conn =
  let rec go () =
    match Transport.recv conn with
    | exception Transport.Protocol_damage reason ->
      exec_fail t i ~proto_fault:true ~detail:reason
    | None -> (
      match Transport.status conn with
      | Transport.Closed reason ->
        exec_fail t i ~proto_fault:false ~detail:reason
      | Transport.Connecting | Transport.Up -> ())
    | Some msg ->
      let k = msg.Frame.f_kind in
      if k = Protocol.k_result then begin
        t.fails.(i) <- 0;
        job_done t msg.Frame.f_id (Ok msg.Frame.f_payload);
        go ()
      end
      else if k = Protocol.k_error then begin
        (* a handler-level failure (diagnostics, E0701/E0702 from the
           executor's own pool) — the compile itself answered *)
        t.fails.(i) <- 0;
        let exn =
          match t.proto.Worker.p_decode_exn msg.Frame.f_payload with
          | exn -> exn
          | exception _ ->
            Failure ("undecodable remote error for " ^ msg.Frame.f_id)
        in
        job_done t msg.Frame.f_id (Error exn);
        go ()
      end
      else if k = Protocol.k_ping then go ()
      else
        exec_fail t i ~proto_fault:true
          ~detail:(Printf.sprintf "unexpected frame kind %d" k)
  in
  go ()

let poll_exec t i =
  match t.states.(i) with
  | Quarantined _ -> ()
  | Redial at ->
    if Unix.gettimeofday () >= at && pending t > Queue.length t.results then
      start_dial t i
  | Dialing { dx_conn; dx_deadline } -> (
    Transport.poll dx_conn;
    match Transport.status dx_conn with
    | Transport.Up ->
      Transport.send dx_conn ~kind:Protocol.k_hello ~id:""
        ~payload:Protocol.version_exec;
      t.states.(i) <- Greeting { dx_conn; dx_deadline }
    | Transport.Closed reason -> exec_fail t i ~proto_fault:false ~detail:reason
    | Transport.Connecting ->
      if Unix.gettimeofday () > dx_deadline then
        exec_fail t i ~proto_fault:false ~detail:"dial timed out")
  | Greeting { dx_conn; dx_deadline } -> (
    Transport.poll dx_conn;
    match Transport.recv dx_conn with
    | exception Transport.Protocol_damage reason ->
      exec_fail t i ~proto_fault:true ~detail:reason
    | Some msg
      when msg.Frame.f_kind = Protocol.k_hello
           && String.equal msg.Frame.f_payload Protocol.version_exec ->
      t.fails.(i) <- 0;
      t.dials.(i) <- 0;
      t.states.(i) <- Ready dx_conn;
      drain_ready t i dx_conn
    | Some msg ->
      exec_fail t i ~proto_fault:true
        ~detail:
          (if msg.Frame.f_kind = Protocol.k_error then
             "handshake refused: " ^ msg.Frame.f_payload
           else "handshake: unexpected frame")
    | None -> (
      match Transport.status dx_conn with
      | Transport.Closed reason ->
        exec_fail t i ~proto_fault:false ~detail:reason
      | Transport.Connecting | Transport.Up ->
        if Unix.gettimeofday () > dx_deadline then
          exec_fail t i ~proto_fault:false ~detail:"handshake timed out"))
  | Ready conn -> (
    Transport.poll conn;
    match Transport.status conn with
    | Transport.Closed reason -> exec_fail t i ~proto_fault:false ~detail:reason
    | Transport.Connecting | Transport.Up -> drain_ready t i conn)

(* ------------------------------------------------------------------ *)
(* Dispatch, deadlines, hedging                                        *)
(* ------------------------------------------------------------------ *)

let send_copy t i conn id js =
  Transport.send conn ~kind:Protocol.k_job ~id ~payload:js.js_payload;
  match Transport.status conn with
  | Transport.Closed reason ->
    js.js_last <-
      Unreachable { rf_attempts = js.js_attempts + 1; rf_detail = reason };
    exec_fail t i ~proto_fault:false ~detail:reason;
    (* the send failed before a copy was registered, so exec_fail's
       orphan sweep cannot see this job — if no hedged twin is still
       out, requeue it here or it strands in t.jobs forever *)
    if js.js_copies = [] then requeue t id js;
    false
  | Transport.Connecting | Transport.Up ->
    let now = Unix.gettimeofday () in
    js.js_copies <-
      { cp_exec = i; cp_t0 = now; cp_deadline = now +. t.cfg.r_job_timeout_s }
      :: js.js_copies;
    Obs.Metrics.incr m_dispatched;
    true

(* the ready executor with the lightest load (ties to the lowest
   index — deterministic), excluding [not_on] *)
let pick_exec ?(not_on = -1) t =
  let best = ref None in
  Array.iteri
    (fun i st ->
      match st with
      | Ready _ when i <> not_on ->
        let l = load t i in
        if l < t.cfg.r_slots then (
          match !best with
          | Some (_, bl) when bl <= l -> ()
          | Some _ | None -> best := Some (i, l))
      | _ -> ())
    t.states;
  !best

let dispatch t =
  let continue = ref true in
  while !continue && not (Queue.is_empty t.queue) do
    match pick_exec t with
    | None -> continue := false
    | Some (i, _) -> (
      let id = Queue.pop t.queue in
      if not (Hashtbl.mem t.done_ id) then
        match (Hashtbl.find_opt t.jobs id, t.states.(i)) with
        | Some js, Ready conn -> ignore (send_copy t i conn id js)
        | Some _, _ | None, _ -> ())
  done

let expire t =
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun i st ->
      match st with
      | Ready _ ->
        let expired =
          Hashtbl.fold
            (fun id js acc ->
              if
                List.exists
                  (fun c -> c.cp_exec = i && now > c.cp_deadline)
                  js.js_copies
              then (id, js) :: acc
              else acc)
            t.jobs []
        in
        if expired <> [] then
          exec_fail t i ~proto_fault:false
            ~detail:
              (Printf.sprintf "job %s exceeded its %gs network deadline"
                 (fst (List.hd expired))
                 t.cfg.r_job_timeout_s)
      | Redial _ | Dialing _ | Greeting _ | Quarantined _ -> ())
    t.states

let hedge t =
  if t.cfg.r_hedge_s > 0. then begin
    let now = Unix.gettimeofday () in
    Hashtbl.iter
      (fun id js ->
        match js.js_copies with
        | [ c ] when now -. c.cp_t0 >= t.cfg.r_hedge_s -> (
          match pick_exec ~not_on:c.cp_exec t with
          | Some (i, _) -> (
            match t.states.(i) with
            | Ready conn ->
              Obs.Metrics.incr m_hedged;
              Obs.Trace.instant ~cat:"remote"
                ~args:[ ("unit", id); ("exec", exec_name t i) ]
                "remote.hedge";
              ignore (send_copy t i conn id js)
            | _ -> ())
          | None -> ())
        | _ -> ())
      t.jobs
  end

(* every executor is quarantined: no copy will ever answer again.
   Settle everything still held — locally, or as E0703/E0704. *)
let drain_dead t =
  let all_quarantined =
    Array.for_all
      (function Quarantined _ -> true | _ -> false)
      t.states
  in
  if all_quarantined then begin
    t.degraded <- true;
    let held =
      Hashtbl.fold (fun id js acc -> (id, js) :: acc) t.jobs []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.iter
      (fun (id, js) ->
        if not (Hashtbl.mem t.done_ id) then
          if t.cfg.r_local_fallback then run_local t id js
          else begin
            (match js.js_last with
            | Unreachable _ | Protocol _ when js.js_attempts > 0 -> ()
            | _ ->
              js.js_last <-
                Unreachable
                  {
                    rf_attempts = js.js_attempts;
                    rf_detail = "every executor is quarantined";
                  });
            job_done t id (Error (t.cfg.r_fail ~id js.js_last))
          end)
      held;
    Queue.clear t.queue
  end

let step t =
  Array.iteri (fun i _ -> poll_exec t i) t.states;
  expire t;
  hedge t;
  dispatch t;
  if Hashtbl.length t.jobs > 0 || not (Queue.is_empty t.queue) then
    drain_dead t

(* ------------------------------------------------------------------ *)
(* The pool surface                                                    *)
(* ------------------------------------------------------------------ *)

let submit t ~id payload =
  if t.closed then invalid_arg "Fleet.submit: fleet is shut down";
  let js =
    {
      js_payload = payload;
      js_attempts = 0;
      js_copies = [];
      js_last =
        Unreachable { rf_attempts = 0; rf_detail = "never dispatched" };
    }
  in
  Hashtbl.replace t.jobs id js;
  Hashtbl.remove t.done_ id;
  if t.degraded && t.cfg.r_local_fallback then run_local t id js
  else Queue.push id t.queue

let slot_busy t = Array.copy t.busy

let conns t =
  Array.fold_left
    (fun acc st ->
      match st with
      | Dialing { dx_conn; _ } | Greeting { dx_conn; _ } | Ready dx_conn ->
        dx_conn :: acc
      | Redial _ | Quarantined _ -> acc)
    [] t.states

let next t =
  if t.closed then invalid_arg "Fleet.next: fleet is shut down";
  if pending t = 0 then invalid_arg "Fleet.next: no job pending";
  while Queue.is_empty t.results do
    step t;
    (match t.cfg.r_tick with Some f -> f () | None -> ());
    if Queue.is_empty t.results then
      Transport.wait (conns t)
        ~timeout_s:(if t.cfg.r_tick = None then 0.01 else 0.0005)
  done;
  Queue.pop t.results

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Array.iteri
      (fun i st ->
        match st with
        | Dialing { dx_conn; _ } | Greeting { dx_conn; _ } | Ready dx_conn ->
          Transport.close dx_conn;
          t.states.(i) <- Quarantined "shut down"
        | Redial _ | Quarantined _ -> ())
      t.states
  end
