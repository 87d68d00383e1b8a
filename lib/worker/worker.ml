module Frame = Pickle.Frame

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
let m_ipc_out = Obs.Metrics.counter "worker.ipc_bytes_out"
let m_ipc_in = Obs.Metrics.counter "worker.ipc_bytes_in"
let g_pool = Obs.Metrics.gauge "worker.pool"

(* message kinds of the frame protocol *)
let k_hello = 0
let k_heartbeat = 1
let k_request = 2
let k_response = 3
let k_error = 4
let k_trace = 5  (* child -> parent: a drained trace-event batch *)

(* how long without a heartbeat before a worker counts as wedged *)
let hb_grace cfg = 4. *. cfg.w_heartbeat_s

(* ------------------------------------------------------------------ *)
(* EINTR-safe I/O (the child's SIGALRM heartbeats interrupt syscalls)   *)
(* ------------------------------------------------------------------ *)

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let write_frame fd frame =
  write_all fd (Bytes.of_string frame) 0 (String.length frame)

let rec read_some fd b off len =
  match Unix.read fd b off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd b off len

(* read exactly [len] bytes; [None] on EOF *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec go off =
    if off = len then Some (Bytes.to_string b)
    else
      match read_some fd b off (len - off) with
      | 0 -> None
      | n -> go (off + n)
  in
  go 0

let read_frame fd =
  match read_exact fd Frame.header_size with
  | None -> None
  | Some header -> (
    match read_exact fd (Frame.body_length header) with
    | None -> None
    | Some body -> Some (Frame.decode_body body))

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

(* frame writes must not interleave with the heartbeat the SIGALRM
   handler writes, or the stream tears mid-frame *)
let with_alarm_blocked f =
  let old = Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ] in
  Fun.protect
    ~finally:(fun () -> ignore (Unix.sigprocmask Unix.SIG_SETMASK old))
    f

(* ship the child's buffered trace events to the supervisor.  Called
   before every reply (flush-on-result) and on job receipt, so a child
   that later crashes has already flushed everything up to its current
   job — the supervisor loses at most the spans of the dying compile,
   which it stands in for with a [truncated] span. *)
let flush_trace send =
  if Obs.Trace.enabled () then
    match Obs.Trace.drain_wire () with
    | "" -> ()
    | payload -> (
      try
        with_alarm_blocked (fun () ->
            write_frame send (Frame.encode ~kind:k_trace ~id:"" ~payload))
      with Unix.Unix_error _ -> ())

let child_loop cfg proto ~recv ~send =
  (match List.assoc_opt "*" cfg.w_chaos with
  | Some Chaos_nostart -> Unix._exit 7
  | _ -> ());
  (* the fork copied the parent's trace buffer (and enabled flag): drop
     the inherited events — the parent already owns them — and re-base
     this process's clock.  The HELLO carries the new epoch so the
     supervisor can correct the offset when it injects our events. *)
  if Obs.Trace.enabled () then Obs.Trace.reset ();
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         try write_frame send (Frame.encode ~kind:k_heartbeat ~id:"" ~payload:"")
         with Unix.Unix_error _ -> ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       {
         Unix.it_interval = cfg.w_heartbeat_s;
         it_value = cfg.w_heartbeat_s;
       });
  with_alarm_blocked (fun () ->
      write_frame send
        (Frame.encode ~kind:k_hello ~id:""
           ~payload:(Printf.sprintf "%h" (Obs.Trace.epoch_s ()))));
  let rec serve () =
    match read_frame recv with
    | None -> Unix._exit 0 (* parent closed the pipe: orderly shutdown *)
    | Some { Frame.f_kind; f_id; f_payload } when f_kind = k_request ->
      flush_trace send;
      child_act cfg f_id;
      let reply =
        match proto.p_handler ~id:f_id f_payload with
        | payload -> Frame.encode ~kind:k_response ~id:f_id ~payload
        | exception exn ->
          Frame.encode ~kind:k_error ~id:f_id
            ~payload:(proto.p_encode_exn exn)
      in
      flush_trace send;
      with_alarm_blocked (fun () -> write_frame send reply);
      serve ()
    | Some _ -> Unix._exit 8 (* protocol violation *)
  in
  try serve () with _ -> Unix._exit 9

(* ------------------------------------------------------------------ *)
(* The supervisor                                                      *)
(* ------------------------------------------------------------------ *)

type child = {
  ch_pid : int;
  ch_send : Unix.file_descr;  (** requests out *)
  ch_recv : Unix.file_descr;  (** replies and heartbeats in *)
  mutable ch_pending : string;  (** inbound bytes short of a frame *)
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
  (* a worker dying mid-write must surface as EPIPE on our write, not
     kill the supervisor outright *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
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

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn t i =
  let req_read, req_write = Unix.pipe () in
  let res_read, res_write = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    close_quietly req_write;
    close_quietly res_read;
    (* drop the other workers' pipe ends, or a sibling holding the
       write end open would defeat this worker's EOF detection *)
    Array.iter
      (function
        | Live c ->
          close_quietly c.ch_send;
          close_quietly c.ch_recv
        | Down _ -> ())
      t.slots;
    child_loop t.cfg t.proto ~recv:req_read ~send:res_write
  | pid ->
    close_quietly req_read;
    close_quietly res_write;
    Obs.Metrics.incr m_spawns;
    if t.restarts.(i) > 0 then begin
      Obs.Metrics.incr m_restarts;
      Obs.Trace.instant ~cat:"worker"
        ~args:[ ("slot", string_of_int i); ("pid", string_of_int pid) ]
        "worker.restart"
    end
    else
      Obs.Trace.instant ~cat:"worker"
        ~args:[ ("slot", string_of_int i); ("pid", string_of_int pid) ]
        "worker.spawn";
    t.restarts.(i) <- t.restarts.(i) + 1;
    t.slots.(i) <-
      Live
        {
          ch_pid = pid;
          ch_send = req_write;
          ch_recv = res_read;
          ch_pending = "";
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
  close_quietly c.ch_send;
  close_quietly c.ch_recv;
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

(* the child's pipe hit EOF (or a read error): it died on its own *)
let on_eof t i c =
  let detail = status_detail (reap c.ch_pid) in
  salvage t i c ~detail;
  retire t i c;
  match c.ch_job with
  | Some (id, payload) -> account_crash t ~id ~payload ~detail
  | None -> if not c.ch_hello then account_nostart t ~detail

let kill_child c =
  Obs.Metrics.incr m_kills;
  (try Unix.kill c.ch_pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap c.ch_pid)

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

let on_heartbeat_lost t i c =
  kill_child c;
  let detail = "went silent (heartbeat lost; killed)" in
  salvage t i c ~detail;
  retire t i c;
  match c.ch_job with
  | Some (id, payload) -> account_crash t ~id ~payload ~detail
  | None -> if not c.ch_hello then account_nostart t ~detail

(* a live child speaking garbage (bad magic, CRC mismatch) is as dead
   to us as a crashed one *)
let on_malfunction t i c detail =
  kill_child c;
  salvage t i c ~detail;
  retire t i c;
  match c.ch_job with
  | Some (id, payload) -> account_crash t ~id ~payload ~detail
  | None -> if not c.ch_hello then account_nostart t ~detail

let handle_msg t i c msg =
  let now = Unix.gettimeofday () in
  match msg.Frame.f_kind with
  | k when k = k_hello ->
    c.ch_hello <- true;
    t.spawn_failures <- 0;
    (* the HELLO carries the child's trace epoch: the offset between
       its clock origin and ours corrects every event it later ships *)
    (match float_of_string_opt msg.Frame.f_payload with
    | Some child_epoch ->
      c.ch_offset_us <- (child_epoch -. Obs.Trace.epoch_s ()) *. 1e6
    | None -> ());
    c.ch_hb_deadline <- now +. hb_grace t.cfg
  | k when k = k_heartbeat -> c.ch_hb_deadline <- now +. hb_grace t.cfg
  | k when k = k_trace ->
    c.ch_hb_deadline <- now +. hb_grace t.cfg;
    if Obs.Trace.enabled () then
      ignore
        (Obs.Trace.inject ~pid:c.ch_pid ~offset_us:c.ch_offset_us
           msg.Frame.f_payload)
  | k when k = k_response || k = k_error -> (
    match c.ch_job with
    | Some (id, _) when String.equal id msg.Frame.f_id ->
      c.ch_job <- None;
      c.ch_job_deadline <- infinity;
      t.sb_busy.(i) <- t.sb_busy.(i) +. Float.max 0. (now -. c.ch_job_t0);
      t.inflight <- t.inflight - 1;
      Hashtbl.remove t.crashes id;
      let result =
        if k = k_response then Ok msg.Frame.f_payload
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

let rec parse_frames t i c =
  match Frame.pop c.ch_pending with
  | exception Pickle.Buf.Corrupt _ ->
    on_malfunction t i c "sent a corrupt frame"
  | None -> ()
  | Some (msg, rest) -> (
    c.ch_pending <- rest;
    handle_msg t i c msg;
    (* the slot may have been retired by a malfunction above *)
    match t.slots.(i) with
    | Live c' when c' == c -> parse_frames t i c
    | Live _ | Down _ -> ())

let chunk_size = 65536

let on_readable t i c =
  let chunk = Bytes.create chunk_size in
  match read_some c.ch_recv chunk 0 chunk_size with
  | 0 -> on_eof t i c
  | exception Unix.Unix_error _ -> on_eof t i c
  | n ->
    Obs.Metrics.add m_ipc_in n;
    c.ch_pending <- c.ch_pending ^ Bytes.sub_string chunk 0 n;
    parse_frames t i c

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
        let frame = Frame.encode ~kind:k_request ~id ~payload in
        match write_frame c.ch_send frame with
        | () ->
          Obs.Metrics.add m_ipc_out (String.length frame);
          c.ch_job <- Some (id, payload);
          c.ch_job_t0 <- now;
          t.inflight <- t.inflight + 1;
          c.ch_job_deadline <- now +. t.cfg.w_timeout_s;
          c.ch_hb_deadline <- now +. hb_grace t.cfg
        | exception Unix.Unix_error _ ->
          (* died while idle: the job was never delivered, so requeue it
             without crash accounting *)
          Queue.push (id, payload) t.queue;
          let detail = status_detail (reap c.ch_pid) in
          ignore detail;
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
        then on_heartbeat_lost t i c
      | Down _ -> ())
    t.slots

let pending t = Queue.length t.queue + t.inflight + Queue.length t.results
let slot_busy t = Array.copy t.sb_busy

let submit t ~id payload =
  if t.closed then invalid_arg "Worker.submit: pool is shut down";
  Queue.push (id, payload) t.queue

(* one nonblocking supervision turn: spawn/dispatch, drain readable
   pipes, enforce deadlines.  The remote executor drives the pool this
   way from inside its socket reactor, where blocking in [next]
   would starve the connections. *)
let pump t =
  if t.closed then invalid_arg "Worker.pump: pool is shut down";
  if pending t > 0 then begin
    dispatch t;
    let fds =
      Array.fold_left
        (fun acc -> function Live c -> c.ch_recv :: acc | Down _ -> acc)
        [] t.slots
    in
    if fds <> [] then begin
      let readable, _, _ =
        try Unix.select fds [] [] 0.
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iteri
        (fun i slot ->
          match slot with
          | Live c when List.memq c.ch_recv readable -> (
            match t.slots.(i) with
            | Live c' when c' == c -> on_readable t i c
            | Live _ | Down _ -> ())
          | Live _ | Down _ -> ())
        t.slots
    end;
    expire t
  end

let poll t =
  if t.closed then invalid_arg "Worker.poll: pool is shut down";
  if Queue.is_empty t.results then None else Some (Queue.pop t.results)

let next t =
  if t.closed then invalid_arg "Worker.next: pool is shut down";
  if pending t = 0 then invalid_arg "Worker.next: no job pending";
  while Queue.is_empty t.results do
    dispatch t;
    let now = Unix.gettimeofday () in
    let deadline = ref infinity in
    let fds = ref [] in
    Array.iter
      (function
        | Live c ->
          fds := c.ch_recv :: !fds;
          if c.ch_job <> None then
            deadline := Float.min !deadline c.ch_job_deadline;
          if c.ch_job <> None || not c.ch_hello then
            deadline := Float.min !deadline c.ch_hb_deadline
        | Down at ->
          if not (Queue.is_empty t.queue) then
            deadline := Float.min !deadline at)
      t.slots;
    if !fds = [] && !deadline = infinity then
      raise (Pool_down "no live workers and nothing left to wait for");
    let timeout =
      if !deadline = infinity then -1. else Float.max 0.005 (!deadline -. now)
    in
    let readable, _, _ =
      try Unix.select !fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun i slot ->
        match slot with
        | Live c when List.memq c.ch_recv readable -> (
          (* the slot may have been retired while handling an earlier fd *)
          match t.slots.(i) with
          | Live c' when c' == c -> on_readable t i c
          | Live _ | Down _ -> ())
        | Live _ | Down _ -> ())
      t.slots;
    expire t
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
          close_quietly c.ch_send;
          close_quietly c.ch_recv;
          t.slots.(i) <- Down 0.
        | Down _ -> ())
      t.slots
  end
