module Frame = Pickle.Frame
module P = Protocol

type chaos =
  | Chaos_crash
  | Chaos_hang
  | Chaos_exit of int
  | Chaos_wedge
  | Chaos_nostart

type config = {
  w_jobs : int;
  w_timeout_s : float;
  w_heartbeat_s : float;
  w_crash_limit : int;
  w_spawn_limit : int;
  w_backoff_s : float;
  w_backoff_cap_s : float;
  w_chaos : (string * chaos) list;
}

let chaos_env_var = "SMLSEP_WORKER_CHAOS"

let chaos_of_env () =
  match Sys.getenv_opt chaos_env_var with
  | None | Some "" -> []
  | Some spec ->
    String.split_on_char ',' spec
    |> List.filter_map (fun entry ->
           match String.split_on_char ':' (String.trim entry) with
           | [ "crash"; unit_ ] -> Some (unit_, Chaos_crash)
           | [ "hang"; unit_ ] -> Some (unit_, Chaos_hang)
           | [ "wedge"; unit_ ] -> Some (unit_, Chaos_wedge)
           | [ "nostart" ] | [ "nostart"; _ ] -> Some ("*", Chaos_nostart)
           | [ mode; unit_ ]
             when String.length mode > 5
                  && String.equal (String.sub mode 0 5) "exit=" -> (
             match
               int_of_string_opt
                 (String.sub mode 5 (String.length mode - 5))
             with
             | Some n -> Some (unit_, Chaos_exit n)
             | None -> None)
           | _ -> None)

let default_config ?(jobs = 2) () =
  {
    w_jobs = max 1 jobs;
    w_timeout_s = 30.;
    w_heartbeat_s = 0.25;
    w_crash_limit = 2;
    w_spawn_limit = 3;
    w_backoff_s = 0.05;
    w_backoff_cap_s = 1.0;
    w_chaos = chaos_of_env ();
  }

type failure =
  | Crashed of { wf_attempts : int; wf_detail : string }
  | Timed_out of { wf_timeout_s : float }

exception Pool_down of string

type proto = {
  p_handler : id:string -> string -> string;
  p_encode_exn : exn -> string;
  p_decode_exn : string -> exn;
  p_fail : id:string -> failure -> exn;
}

type completion = string * (string, exn) result

let m_spawns = Obs.Metrics.counter "worker.spawns"
let m_restarts = Obs.Metrics.counter "worker.restarts"
let m_kills = Obs.Metrics.counter "worker.kills"
let m_crashes = Obs.Metrics.counter "worker.crashes"
let m_timeouts = Obs.Metrics.counter "worker.timeouts"
let m_quarantined = Obs.Metrics.counter "worker.quarantined"
let g_pool = Obs.Metrics.gauge "worker.pool"

(* how long without a heartbeat before a worker counts as wedged *)
let hb_grace cfg = 4. *. cfg.w_heartbeat_s

(* ------------------------------------------------------------------ *)
(* The child                                                           *)
(* ------------------------------------------------------------------ *)

let chaos_for cfg id =
  match List.assoc_opt id cfg.w_chaos with
  | Some c -> Some c
  | None -> List.assoc_opt "*" cfg.w_chaos

let rec sleep_forever () =
  (try Unix.sleepf 3600. with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  sleep_forever ()

let child_act cfg id =
  match chaos_for cfg id with
  | None | Some Chaos_nostart -> ()
  | Some Chaos_crash -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | Some (Chaos_exit n) -> Unix._exit n
  | Some Chaos_hang ->
    (* heartbeats keep flowing from the SIGALRM handler: only the
       wall-clock job timeout can end this *)
    sleep_forever ()
  | Some Chaos_wedge ->
    (* heartbeats stop too: the supervisor must detect the silence *)
    ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ]);
    sleep_forever ()

(* The child runs with SIGALRM blocked and opens it only around the job
   and around [Transport.wait], which never changes the connection: the
   heartbeat the handler sends can never interleave with the main
   code's own use of it, yet flows while a request is on its way. *)
let with_alarm_open f =
  ignore (Unix.sigprocmask Unix.SIG_UNBLOCK [ Sys.sigalrm ]);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ]))
    f

(* ship the child's buffered trace events to the supervisor.  Called
   before every reply (flush-on-result) and on job receipt, so a child
   that later crashes has already flushed everything up to its current
   job — the supervisor loses at most the spans of the dying compile,
   which it stands in for with a [truncated] span. *)
let flush_trace conn =
  if Obs.Trace.enabled () then
    match Obs.Trace.drain_wire () with
    | "" -> ()
    | payload -> Transport.send conn ~kind:P.k_trace ~id:"" ~payload

let child_loop cfg proto conn =
  (match List.assoc_opt "*" cfg.w_chaos with
  | Some Chaos_nostart -> Unix._exit 7
  | _ -> ());
  (* the fork copied the parent's trace buffer (and enabled flag): drop
     the inherited events — the parent already owns them — and re-base
     this process's clock.  The HELLO carries the new epoch so the
     supervisor can correct the offset when it injects our events. *)
  if Obs.Trace.enabled () then Obs.Trace.reset ();
  ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ]);
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ -> Transport.send conn ~kind:P.k_heartbeat ~id:"" ~payload:""));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       {
         Unix.it_interval = cfg.w_heartbeat_s;
         it_value = cfg.w_heartbeat_s;
       });
  Transport.send conn ~kind:P.k_worker_hello ~id:""
    ~payload:(Printf.sprintf "%h" (Obs.Trace.epoch_s ()));
  let rec next_request () =
    match Transport.recv conn with
    | Some msg -> msg
    | None -> (
      match Transport.status conn with
      | Transport.Closed _ ->
        Unix._exit 0 (* parent closed the link: orderly shutdown *)
      | Transport.Connecting | Transport.Up ->
        with_alarm_open (fun () -> Transport.wait conn ~timeout_s:infinity);
        Transport.poll conn;
        next_request ())
  in
  let rec serve () =
    match next_request () with
    | { Frame.f_kind; f_id; f_payload } when f_kind = P.k_request ->
      flush_trace conn;
      let kind, payload =
        with_alarm_open (fun () ->
            child_act cfg f_id;
            match proto.p_handler ~id:f_id f_payload with
            | payload -> (P.k_response, payload)
            | exception exn -> (P.k_worker_error, proto.p_encode_exn exn))
      in
      flush_trace conn;
      Transport.send conn ~kind ~id:f_id ~payload;
      serve ()
    | _ -> Unix._exit 8 (* protocol violation *)
  in
  try serve () with _ -> Unix._exit 9

(* ------------------------------------------------------------------ *)
(* The supervisor                                                      *)
(* ------------------------------------------------------------------ *)

type child = {
  ch_pid : int;
  ch_conn : Transport.conn;  (** the link: requests out, replies in *)
  mutable ch_hello : bool;
  mutable ch_job : (string * string) option;
  mutable ch_job_t0 : float;  (** when the running job was dispatched *)
  mutable ch_job_deadline : float;
  mutable ch_hb_deadline : float;
  mutable ch_offset_us : float;
      (** child trace epoch minus ours, in microseconds *)
}

type slot = Live of child | Down of float  (** earliest respawn time *)

type t = {
  cfg : config;
  proto : proto;
  slots : slot array;
  restarts : int array;  (** spawns per slot, for the backoff exponent *)
  sb_busy : float array;  (** seconds each slot has spent holding a job *)
  queue : (string * string) Queue.t;
  results : completion Queue.t;
  crashes : (string, int) Hashtbl.t;  (** per-job crash attempts *)
  mutable spawn_failures : int;  (** consecutive pre-handshake deaths *)
  mutable inflight : int;
  backoff : Support.Backoff.t;
  mutable closed : bool;
}

let create cfg proto =
  let jobs = max 1 cfg.w_jobs in
  Obs.Metrics.set g_pool jobs;
  {
    cfg = { cfg with w_jobs = jobs };
    proto;
    slots = Array.make jobs (Down 0.);
    restarts = Array.make jobs 0;
    sb_busy = Array.make jobs 0.;
    queue = Queue.create ();
    results = Queue.create ();
    crashes = Hashtbl.create 16;
    spawn_failures = 0;
    inflight = 0;
    backoff =
      Support.Backoff.create ~base_s:cfg.w_backoff_s
        ~cap_s:cfg.w_backoff_cap_s ();
    closed = false;
  }

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0

let status_detail = function
  | Unix.WEXITED n -> Printf.sprintf "exited with status %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let spawn t i =
  let ours, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close ours;
    (* drop the other workers' links, or a sibling holding one open
       would defeat that worker's EOF detection *)
    Array.iter
      (function Live c -> Transport.close c.ch_conn | Down _ -> ())
      t.slots;
    child_loop t.cfg t.proto (Transport.of_fd theirs)
  | pid ->
    Unix.close theirs;
    Obs.Metrics.incr m_spawns;
    if t.restarts.(i) > 0 then Obs.Metrics.incr m_restarts;
    Obs.Trace.instant ~cat:"worker"
      ~args:[ ("slot", string_of_int i); ("pid", string_of_int pid) ]
      (if t.restarts.(i) > 0 then "worker.restart" else "worker.spawn");
    t.restarts.(i) <- t.restarts.(i) + 1;
    t.slots.(i) <-
      Live
        {
          ch_pid = pid;
          ch_conn = Transport.of_fd ours;
          ch_hello = false;
          ch_job = None;
          ch_job_t0 = 0.;
          ch_job_deadline = infinity;
          ch_hb_deadline = Unix.gettimeofday () +. hb_grace t.cfg;
          ch_offset_us = 0.;
        }

(* take the slot down and schedule its respawn with capped, jittered
   exponential backoff — restarts after a crash storm must neither
   retry in lock-step nor grow unboundedly sparse *)
let retire t i c =
  Transport.close c.ch_conn;
  let delay =
    Support.Backoff.delay t.backoff ~attempt:(max 0 (t.restarts.(i) - 1))
  in
  t.slots.(i) <- Down (Unix.gettimeofday () +. delay)

(* a child died while holding [id]: retry the job on a fresh worker, or
   quarantine it once it has crashed workers [w_crash_limit] times *)
let account_crash t ~id ~payload ~detail =
  t.inflight <- t.inflight - 1;
  Obs.Metrics.incr m_crashes;
  let attempts = 1 + Option.value ~default:0 (Hashtbl.find_opt t.crashes id) in
  Hashtbl.replace t.crashes id attempts;
  Obs.Trace.instant ~cat:"worker"
    ~args:[ ("unit", id); ("detail", detail) ]
    "worker.crash";
  if attempts >= t.cfg.w_crash_limit then begin
    Obs.Metrics.incr m_quarantined;
    Obs.Trace.instant ~cat:"worker" ~args:[ ("unit", id) ] "worker.quarantine";
    Queue.push
      ( id,
        Error
          (t.proto.p_fail ~id
             (Crashed { wf_attempts = attempts; wf_detail = detail })) )
      t.results
  end
  else Queue.push (id, payload) t.queue

(* a child died before its handshake: it never did any work, so this is
   the pool failing to start, not a job crashing it *)
let account_nostart t ~detail =
  t.spawn_failures <- t.spawn_failures + 1;
  if t.spawn_failures >= t.cfg.w_spawn_limit then
    raise
      (Pool_down
         (Printf.sprintf
            "%d consecutive workers died before their handshake (last one %s)"
            t.spawn_failures detail))

(* the job died with its child.  Account the slot's busy time, and —
   since the child's last trace batch went down with it — stand in a
   [truncated] span covering dispatch-to-death, so the merged trace
   still shows where the quarantined unit's time went. *)
let salvage t i c ~detail =
  match c.ch_job with
  | None -> ()
  | Some (id, _) ->
    let now = Unix.gettimeofday () in
    t.sb_busy.(i) <- t.sb_busy.(i) +. Float.max 0. (now -. c.ch_job_t0);
    if Obs.Trace.enabled () then
      Obs.Trace.record_span ~cat:"worker"
        ~args:
          [
            ("unit", id);
            ("truncated", "true");
            ("detail", detail);
            ("pid", string_of_int c.ch_pid);
          ]
        ~start_s:c.ch_job_t0 "build.compile_job"

let kill_child c =
  Obs.Metrics.incr m_kills;
  (try Unix.kill c.ch_pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap c.ch_pid)

(* the child is gone and reaped: salvage its job's span, retire the
   slot, and retry or quarantine the job it held *)
let lost t i c ~detail =
  salvage t i c ~detail;
  retire t i c;
  match c.ch_job with
  | Some (id, payload) -> account_crash t ~id ~payload ~detail
  | None -> if not c.ch_hello then account_nostart t ~detail

(* the child's link hit EOF (or an I/O error): it died on its own *)
let on_eof t i c = lost t i c ~detail:(status_detail (reap c.ch_pid))

(* a live child that went silent or speaks garbage (bad magic, CRC
   mismatch) is as dead to us as a crashed one *)
let on_malfunction t i c detail =
  kill_child c;
  lost t i c ~detail

let on_timeout t i c =
  kill_child c;
  Obs.Metrics.incr m_timeouts;
  salvage t i c ~detail:"timed out";
  retire t i c;
  match c.ch_job with
  | Some (id, _) ->
    t.inflight <- t.inflight - 1;
    Obs.Trace.instant ~cat:"worker" ~args:[ ("unit", id) ] "worker.timeout";
    Queue.push
      ( id,
        Error
          (t.proto.p_fail ~id (Timed_out { wf_timeout_s = t.cfg.w_timeout_s }))
      )
      t.results
  | None -> assert false (* only busy workers have job deadlines *)

let handle_msg t i c msg =
  let now = Unix.gettimeofday () in
  match msg.Frame.f_kind with
  | k when k = P.k_worker_hello ->
    c.ch_hello <- true;
    t.spawn_failures <- 0;
    (* the HELLO carries the child's trace epoch: the offset between
       its clock origin and ours corrects every event it later ships *)
    (match float_of_string_opt msg.Frame.f_payload with
    | Some child_epoch ->
      c.ch_offset_us <- (child_epoch -. Obs.Trace.epoch_s ()) *. 1e6
    | None -> ());
    c.ch_hb_deadline <- now +. hb_grace t.cfg
  | k when k = P.k_heartbeat -> c.ch_hb_deadline <- now +. hb_grace t.cfg
  | k when k = P.k_trace ->
    c.ch_hb_deadline <- now +. hb_grace t.cfg;
    if Obs.Trace.enabled () then
      ignore
        (Obs.Trace.inject ~pid:c.ch_pid ~offset_us:c.ch_offset_us
           msg.Frame.f_payload)
  | k when k = P.k_response || k = P.k_worker_error -> (
    match c.ch_job with
    | Some (id, _) when String.equal id msg.Frame.f_id ->
      c.ch_job <- None;
      c.ch_job_deadline <- infinity;
      t.sb_busy.(i) <- t.sb_busy.(i) +. Float.max 0. (now -. c.ch_job_t0);
      t.inflight <- t.inflight - 1;
      Hashtbl.remove t.crashes id;
      let result =
        if k = P.k_response then Ok msg.Frame.f_payload
        else
          Error
            (match t.proto.p_decode_exn msg.Frame.f_payload with
            | exn -> exn
            | exception _ ->
              Failure ("undecodable worker error for " ^ id))
      in
      Queue.push (id, result) t.results
    | Some _ | None ->
      on_malfunction t i c "replied to a job it was not given")
  | _ -> on_malfunction t i c "sent an unknown message kind"

(* every complete frame the child sent, then its death: frames that
   arrived before an EOF still count *)
let rec drain t i c =
  match Transport.recv c.ch_conn with
  | exception Transport.Protocol_damage reason ->
    on_malfunction t i c ("sent a corrupt frame: " ^ reason)
  | Some msg -> (
    handle_msg t i c msg;
    (* the slot may have been retired by a malfunction above *)
    match t.slots.(i) with
    | Live c' when c' == c -> drain t i c
    | Live _ | Down _ -> ())
  | None -> (
    match Transport.status c.ch_conn with
    | Transport.Closed _ -> on_eof t i c
    | Transport.Connecting | Transport.Up -> ())

(* spawn due workers and hand queued jobs to idle, greeted ones *)
let dispatch t =
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun i slot ->
      match slot with
      | Down at when (not (Queue.is_empty t.queue)) && at <= now -> spawn t i
      | Down _ | Live _ -> ())
    t.slots;
  Array.iteri
    (fun i slot ->
      match slot with
      | Live c when c.ch_hello && c.ch_job = None && not (Queue.is_empty t.queue)
        -> (
        let id, payload = Queue.pop t.queue in
        Transport.send c.ch_conn ~kind:P.k_request ~id ~payload;
        match Transport.status c.ch_conn with
        | Transport.Up | Transport.Connecting ->
          (* the clocks start once the request is encoded and queued:
             a large frame's encode is not the child's time *)
          let now = Unix.gettimeofday () in
          c.ch_job <- Some (id, payload);
          c.ch_job_t0 <- now;
          t.inflight <- t.inflight + 1;
          c.ch_job_deadline <- now +. t.cfg.w_timeout_s;
          c.ch_hb_deadline <- now +. hb_grace t.cfg
        | Transport.Closed _ ->
          (* died while idle: the job was never delivered, so requeue it
             without crash accounting *)
          Queue.push (id, payload) t.queue;
          ignore (reap c.ch_pid);
          retire t i c)
      | Live _ | Down _ -> ())
    t.slots

let expire t =
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun i slot ->
      match slot with
      | Live c ->
        if c.ch_job <> None && now >= c.ch_job_deadline then on_timeout t i c
        else if
          (c.ch_job <> None || not c.ch_hello) && now >= c.ch_hb_deadline
        then on_malfunction t i c "went silent (heartbeat lost; killed)"
      | Down _ -> ())
    t.slots

let pending t = Queue.length t.queue + t.inflight + Queue.length t.results
let slot_busy t = Array.copy t.sb_busy

let submit t ~id payload =
  if t.closed then invalid_arg "Worker.submit: pool is shut down";
  Queue.push (id, payload) t.queue

(* one supervision turn: spawn and dispatch, wait for a link to turn
   ready (not at all, or — [block] — until the earliest deadline), then
   progress the ready links and enforce heartbeat/timeout deadlines *)
let turn t ~block =
  dispatch t;
  let now = Unix.gettimeofday () in
  let deadline = ref infinity in
  let rd = ref [] and wr = ref [] in
  Array.iter
    (function
      | Live c ->
        Option.iter
          (fun fd ->
            rd := fd :: !rd;
            if Transport.want_write c.ch_conn then wr := fd :: !wr)
          (Transport.fd c.ch_conn);
        if c.ch_job <> None then
          deadline := Float.min !deadline c.ch_job_deadline;
        if c.ch_job <> None || not c.ch_hello then
          deadline := Float.min !deadline c.ch_hb_deadline
      | Down at ->
        if not (Queue.is_empty t.queue) then deadline := Float.min !deadline at)
    t.slots;
  if block && !rd = [] && !deadline = infinity then
    raise (Pool_down "no live workers and nothing left to wait for");
  let timeout =
    if not block then 0.
    else if !deadline = infinity then -1.
    else Float.max 0.005 (!deadline -. now)
  in
  let readable, writable, _ =
    try Unix.select !rd !wr [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | Live c -> (
        match Transport.fd c.ch_conn with
        | Some fd when List.memq fd readable || List.memq fd writable ->
          Transport.poll c.ch_conn;
          drain t i c
        | Some _ | None -> ())
      | Down _ -> ())
    t.slots;
  expire t

let pump t =
  if t.closed then invalid_arg "Worker.pump: pool is shut down";
  if pending t > 0 then turn t ~block:false

let poll t =
  if t.closed then invalid_arg "Worker.poll: pool is shut down";
  if Queue.is_empty t.results then None else Some (Queue.pop t.results)

let next t =
  if t.closed then invalid_arg "Worker.next: pool is shut down";
  if pending t = 0 then invalid_arg "Worker.next: no job pending";
  while Queue.is_empty t.results do
    turn t ~block:true
  done;
  Queue.pop t.results

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Array.iteri
      (fun i slot ->
        match slot with
        | Live c ->
          (* no graceful drain: children hold no state worth flushing,
             and a chaos-hung child would never honour the EOF *)
          (try Unix.kill c.ch_pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap c.ch_pid);
          Transport.close c.ch_conn;
          t.slots.(i) <- Down 0.
        | Down _ -> ())
      t.slots
  end
