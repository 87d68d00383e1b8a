module Frame = Pickle.Frame
module P = Protocol

type chaos =
  | Chaos_crash
  | Chaos_hang
  | Chaos_exit of int
  | Chaos_wedge
  | Chaos_nostart

type peers = Spawn of int | Dial of Transport.addr list

type config = {
  peers : peers;
  slots : int;
  timeout_s : float;
  heartbeat_s : float;
  dial_timeout_s : float;
  retries : int;
  hedge_s : float;
  quarantine : int;
  backoff_s : float;
  backoff_cap_s : float;
  chaos : (string * chaos) list;
  net_chaos : Netchaos.plan;
  tick : (unit -> unit) option;
  local_fallback : bool;
  log : string -> unit;
}

let chaos_env_var = "SMLSEP_WORKER_CHAOS"

let chaos_of_env () =
  let entry e =
    match String.split_on_char ':' (String.trim e) with
    | [ "crash"; u ] -> Some (u, Chaos_crash)
    | [ "hang"; u ] -> Some (u, Chaos_hang)
    | [ "wedge"; u ] -> Some (u, Chaos_wedge)
    | "nostart" :: ([] | [ _ ]) -> Some ("*", Chaos_nostart)
    | [ mode; u ] ->
      Scanf.sscanf_opt mode "exit=%d%!" (fun n -> (u, Chaos_exit n))
    | _ -> None
  in
  match Sys.getenv_opt chaos_env_var with
  | None -> []
  | Some spec -> List.filter_map entry (String.split_on_char ',' spec)

let default_config peers =
  let spawned = match peers with Spawn _ -> true | Dial _ -> false in
  {
    peers;
    slots = 2;
    timeout_s = 30.;
    heartbeat_s = 0.25;
    dial_timeout_s = 5.;
    retries = (if spawned then 1 else 2);
    hedge_s = 10.;
    quarantine = 3;
    backoff_s = 0.05;
    backoff_cap_s = 1.;
    chaos = chaos_of_env ();
    net_chaos =
      (if spawned then [] else Option.value ~default:[] (Netchaos.of_env ()));
    tick = None;
    local_fallback = true;
    log = prerr_endline;
  }

type failure =
  | Crashed of { attempts : int; detail : string }
  | Timed_out of { timeout_s : float }
  | Unreachable of { attempts : int; detail : string }
  | Protocol of { detail : string }

exception Pool_down of string

type proto = {
  p_handler : id:string -> string -> string;
  p_encode_exn : exn -> string;
  p_decode_exn : string -> exn;
  p_fail : id:string -> failure -> exn;
}

let answer proto ~id payload =
  match proto.p_handler ~id payload with
  | reply -> (P.k_result, reply)
  | exception exn -> (P.k_error, proto.p_encode_exn exn)

type completion = string * (string, exn) result

let m_spawns = Obs.Metrics.counter "worker.spawns"
let m_restarts = Obs.Metrics.counter "worker.restarts"
let m_kills = Obs.Metrics.counter "worker.kills"
let m_crashes = Obs.Metrics.counter "worker.crashes"
let m_timeouts = Obs.Metrics.counter "worker.timeouts"
let m_quarantined = Obs.Metrics.counter "worker.quarantined"
let g_pool = Obs.Metrics.gauge "worker.pool"
let m_dispatched = Obs.Metrics.counter "fleet.dispatched"
let m_requeued = Obs.Metrics.counter "fleet.requeued"
let m_hedged = Obs.Metrics.counter "fleet.hedged"
let m_retired = Obs.Metrics.counter "fleet.quarantined"
let m_fallback = Obs.Metrics.counter "fleet.local_fallback_jobs"

(* how long without a heartbeat before a child counts as wedged *)
let hb_grace cfg = 4. *. cfg.heartbeat_s

(* ------------------------------------------------------------------ *)
(* The spawned child                                                   *)
(* ------------------------------------------------------------------ *)

let rec sleep_forever () =
  (try Unix.sleepf 3600. with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  sleep_forever ()

let child_act cfg id =
  let chaos = List.assoc_opt id cfg.chaos in
  match if chaos = None then List.assoc_opt "*" cfg.chaos else chaos with
  | None | Some Chaos_nostart -> ()
  | Some Chaos_crash -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | Some (Chaos_exit n) -> Unix._exit n
  | Some Chaos_hang ->
    (* heartbeats flow on: only the job deadline ends this *)
    sleep_forever ()
  | Some Chaos_wedge ->
    (* heartbeats stop too: the pool must detect the silence *)
    ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ]);
    sleep_forever ()

(* The child runs with SIGALRM blocked and opens it only around the job
   and around [Transport.wait], which never changes the connection: the
   heartbeat the handler sends can never interleave with the main
   code's own use of it, yet flows while a job is on its way. *)
let with_alarm_open f =
  ignore (Unix.sigprocmask Unix.SIG_UNBLOCK [ Sys.sigalrm ]);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ]))
    f

(* ship the child's buffered trace events to the pool, on job receipt
   and before every reply: a child that later crashes has flushed all
   but the dying compile, which the pool stands in for with a
   [truncated] span *)
let flush_trace conn =
  if Obs.Trace.enabled () then
    match Obs.Trace.drain_wire () with
    | "" -> ()
    | payload -> Transport.send conn ~kind:P.k_trace ~id:"" ~payload

let child_loop cfg proto conn =
  (match List.assoc_opt "*" cfg.chaos with
  | Some Chaos_nostart -> Unix._exit 7
  | _ -> ());
  (* the fork copied the parent's trace buffer: drop the inherited
     events (the parent owns them) and re-base this process's clock.
     The hello carries the new epoch, so the pool can shift our events
     into its own time. *)
  if Obs.Trace.enabled () then Obs.Trace.reset ();
  ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ]);
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ -> Transport.send conn ~kind:P.k_ping ~id:"" ~payload:""));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = cfg.heartbeat_s; it_value = cfg.heartbeat_s });
  Transport.send conn ~kind:P.k_hello ~id:""
    ~payload:(Printf.sprintf "%h" (Obs.Trace.epoch_s ()));
  let rec serve () =
    let msg = Transport.recv conn in
    match (msg, Transport.status conn) with
    | Some { Frame.f_kind; f_id; f_payload }, _ when f_kind = P.k_job ->
      flush_trace conn;
      let kind, payload =
        with_alarm_open (fun () ->
            child_act cfg f_id;
            answer proto ~id:f_id f_payload)
      in
      flush_trace conn;
      Transport.send conn ~kind ~id:f_id ~payload;
      serve ()
    | Some _, _ -> Unix._exit 8 (* protocol violation *)
    | None, Transport.Closed _ -> Unix._exit 0 (* the pool closed the link *)
    | None, (Transport.Connecting | Transport.Up) ->
      with_alarm_open (fun () -> Transport.wait [ conn ] ~timeout_s:infinity);
      Transport.poll conn;
      serve ()
  in
  try serve () with _ -> Unix._exit 9

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type link =
  | Idle of float  (** no link; start one once this moment passes *)
  | Greeting of Transport.conn  (** waiting for the peer's hello *)
  | Ready of Transport.conn
  | Retired  (** quarantined or shut down *)

type peer = {
  mutable link : link;
  mutable pid : int;  (** the last child spawned; 0 for none *)
  mutable due : float;  (** handshake, then a child's heartbeat deadline *)
  mutable offset_us : float;  (** child trace epoch minus ours, in us *)
  mutable fails : int;  (** consecutive failures *)
}

(* a dispatched copy of a job: which peer holds it, and since when *)
type copy = { cp_peer : int; cp_t0 : float }

type job = {
  j_payload : string;
  mutable j_attempts : int;  (** copies lost so far *)
  mutable j_copies : copy list;
  mutable j_last : failure;  (** what to blame if it is given up *)
}

type t = {
  cfg : config;
  proto : proto;
  spawned : bool;
  addrs : Transport.addr array;
  peers : peer array;
  busy : float array;
  injector : Netchaos.injector option;
  backoff : Support.Backoff.t;
  jobs : (string, job) Hashtbl.t;
  queue : string Queue.t;
  results : completion Queue.t;
  mutable nostarts : int;  (** children in a row dead before their hello *)
  mutable warned : bool;
  mutable closed : bool;
}

let create (cfg : config) proto =
  let spawned, n, addrs =
    match cfg.peers with
    | Spawn n -> (true, max 1 n, [||])
    | Dial addrs -> (false, List.length addrs, Array.of_list addrs)
  in
  if spawned then Obs.Metrics.set g_pool n;
  {
    cfg;
    proto;
    spawned;
    addrs;
    peers =
      Array.init n (fun _ ->
          { link = Idle 0.; pid = 0; due = infinity; offset_us = 0.; fails = 0 });
    busy = Array.make (max 1 n) 0.;
    injector =
      (if cfg.net_chaos = [] then None
       else Some (Netchaos.injector cfg.net_chaos));
    backoff =
      Support.Backoff.create ~base_s:cfg.backoff_s ~cap_s:cfg.backoff_cap_s ();
    jobs = Hashtbl.create 64;
    queue = Queue.create ();
    results = Queue.create ();
    nostarts = 0;
    warned = false;
    closed = false;
  }

let exec_name t i = Transport.addr_to_string t.addrs.(i)

(* a trace instant, under the peer source's category *)
let note t name args =
  Obs.Trace.instant ~cat:(if t.spawned then "worker" else "remote") ~args name

let pending t = Hashtbl.length t.jobs + Queue.length t.results
let slot_busy t = Array.copy t.busy

(* the copies peer [i] holds, as (id, job, copy), in id order *)
let held t i =
  Hashtbl.fold
    (fun id j acc ->
      List.fold_left
        (fun acc c -> if c.cp_peer = i then (id, j, c) :: acc else acc)
        acc j.j_copies)
    t.jobs []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* SIGKILL a child (a dead one ignores it) and reap it: how it ended *)
let stop_child pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec reap () =
    try snd (Unix.waitpid [] pid) with
    | Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  match reap () with
  | Unix.WEXITED n -> Printf.sprintf "exited with status %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* the copy's time counts as its peer's busy time *)
let account t c =
  t.busy.(c.cp_peer) <-
    t.busy.(c.cp_peer) +. Float.max 0. (Unix.gettimeofday () -. c.cp_t0)

(* first answer wins: a hedged twin's late answer finds the job gone *)
let finish t id res =
  match Hashtbl.find_opt t.jobs id with
  | None -> ()
  | Some j ->
    List.iter (account t) j.j_copies;
    Hashtbl.remove t.jobs id;
    Queue.push (id, res) t.results

(* compile in-process: purity makes the bytes identical to any
   executor's, so a dialed pool's degradation costs wall-clock, never
   correctness *)
let run_local t id j =
  if not t.warned then begin
    t.warned <- true;
    t.cfg.log
      "warning: remote executors unavailable; continuing with local compiles"
  end;
  Obs.Metrics.incr m_fallback;
  let t0 = Unix.gettimeofday () in
  let res =
    match t.proto.p_handler ~id j.j_payload with
    | payload -> Ok payload
    | exception exn -> Error exn
  in
  t.busy.(0) <- t.busy.(0) +. (Unix.gettimeofday () -. t0);
  finish t id res

(* a job out of retries: a child's is quarantined (E0701); an
   executor's compiles locally or fails (E0703/E0704) *)
let give_up t id j =
  if t.spawned then begin
    Obs.Metrics.incr m_quarantined;
    note t "worker.quarantine" [ ("unit", id) ]
  end;
  if t.spawned || not t.cfg.local_fallback then
    finish t id (Error (t.proto.p_fail ~id j.j_last))
  else run_local t id j

(* copy [c] of [id] ended without an answer.  A child's last trace batch
   died with it: a span covering dispatch-to-death on the child's own
   track stands in, so the merged trace shows where the time went. *)
let drop_copy t id j c ~detail =
  account t c;
  if t.spawned && Obs.Trace.enabled () then
    Obs.Trace.record_span ~cat:"worker"
      ~args:[ ("unit", id); ("truncated", "true"); ("detail", detail) ]
      ~pid:t.peers.(c.cp_peer).pid ~start_s:c.cp_t0 "build.compile_job";
  j.j_copies <- List.filter (fun c' -> c' != c) j.j_copies

(* Peer [i] failed.  Its link closes, and a child is killed and reaped:
   [detail] says why when the pool [killed] it, its exit status
   otherwise.  The peer restarts after a backoff, or a dialed one that
   failed [quarantine] times in a row is retired.  Each job it held is
   retried once no hedged twin is left, or given up.  A child that died
   before its hello counts toward {!Pool_down}. *)
let lose ?(killed = false) ?(damage = false) t i detail =
  let p = t.peers.(i) in
  let greeting = match p.link with Greeting _ -> true | _ -> false in
  let detail =
    match p.link with
    | Greeting c | Ready c ->
      Transport.close c;
      if killed && t.spawned then Obs.Metrics.incr m_kills;
      let status = if t.spawned then stop_child p.pid else detail in
      if killed then detail else status
    | Idle _ | Retired -> detail
  in
  p.fails <- p.fails + 1;
  if (not t.spawned) && p.fails >= t.cfg.quarantine then begin
    Obs.Metrics.incr m_retired;
    t.cfg.log
      (Printf.sprintf "remote: executor %s quarantined (%s)" (exec_name t i)
         detail);
    note t "remote.quarantine" [ ("exec", exec_name t i); ("detail", detail) ];
    p.link <- Retired
  end
  else
    p.link <-
      Idle
        (Unix.gettimeofday ()
        +. Support.Backoff.delay t.backoff ~attempt:(p.fails - 1));
  List.iter
    (fun (id, j, c) ->
      drop_copy t id j c ~detail;
      if t.spawned then begin
        Obs.Metrics.incr m_crashes;
        note t "worker.crash" [ ("unit", id); ("detail", detail) ]
      end;
      if j.j_copies = [] then begin
        j.j_attempts <- j.j_attempts + 1;
        let attempts = j.j_attempts in
        j.j_last <-
          (if t.spawned then Crashed { attempts; detail }
           else if damage then Protocol { detail }
           else Unreachable { attempts; detail });
        if attempts > t.cfg.retries then give_up t id j
        else begin
          if not t.spawned then Obs.Metrics.incr m_requeued;
          Queue.push id t.queue
        end
      end)
    (held t i);
  if t.spawned && greeting then begin
    t.nostarts <- t.nostarts + 1;
    if t.nostarts >= t.cfg.quarantine then
      raise
        (Pool_down
           (Printf.sprintf "%d consecutive workers died before their \
                            handshake (last one %s)" t.nostarts detail))
  end

let spawn t i =
  let p = t.peers.(i) in
  let ours, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close ours;
    (* drop the other children's links, or a sibling holding one open
       would defeat that child's EOF detection *)
    Array.iter
      (fun p ->
        match p.link with
        | Greeting c | Ready c -> Transport.close c
        | Idle _ | Retired -> ())
      t.peers;
    child_loop t.cfg t.proto (Transport.of_fd theirs)
  | pid ->
    Unix.close theirs;
    let restart = p.pid <> 0 in
    Obs.Metrics.incr m_spawns;
    if restart then Obs.Metrics.incr m_restarts;
    note t
      (if restart then "worker.restart" else "worker.spawn")
      [ ("slot", string_of_int i); ("pid", string_of_int pid) ];
    p.pid <- pid;
    p.link <- Greeting (Transport.of_fd ?chaos:t.injector ours);
    p.due <- Unix.gettimeofday () +. hb_grace t.cfg

(* the hello waits in the link's output until the connect completes *)
let dial t i =
  let p = t.peers.(i) in
  match Transport.dial ?chaos:t.injector t.addrs.(i) with
  | conn ->
    Transport.send conn ~kind:P.k_hello ~id:"" ~payload:P.version_exec;
    p.link <- Greeting conn;
    p.due <- Unix.gettimeofday () +. t.cfg.dial_timeout_s
  | exception Transport.Unreachable reason -> lose t i reason

(* start the peers that are due, while a job waits for one *)
let start_peers t =
  if not (Queue.is_empty t.queue) then begin
    let now = Unix.gettimeofday () in
    Array.iteri
      (fun i p ->
        match p.link with
        | Idle at when at <= now -> if t.spawned then spawn t i else dial t i
        | Idle _ | Greeting _ | Ready _ | Retired -> ())
      t.peers
  end

let handle t i c (msg : Frame.msg) =
  let p = t.peers.(i) and k = msg.f_kind in
  let greeting = match p.link with Greeting _ -> true | _ -> false in
  let alive () = p.due <- Unix.gettimeofday () +. hb_grace t.cfg in
  if
    greeting && k = P.k_hello
    && (t.spawned || String.equal msg.f_payload P.version_exec)
  then begin
    (* a child's hello is its trace epoch: the offset corrects every
       event it ships *)
    if t.spawned then begin
      Option.iter
        (fun epoch -> p.offset_us <- (epoch -. Obs.Trace.epoch_s ()) *. 1e6)
        (float_of_string_opt msg.f_payload);
      alive ()
    end;
    p.fails <- 0;
    t.nostarts <- 0;
    p.link <- Ready c
  end
  else if greeting then
    lose ~killed:true ~damage:true t i
      (if k = P.k_error then "handshake refused: " ^ msg.f_payload
       else "handshake: unexpected frame")
  else if k = P.k_result || k = P.k_error then begin
    match Hashtbl.find_opt t.jobs msg.f_id with
    | Some j when List.exists (fun c -> c.cp_peer = i) j.j_copies ->
      p.fails <- 0;
      finish t msg.f_id
        (if k = P.k_result then Ok msg.f_payload
         else
           Error
             (try t.proto.p_decode_exn msg.f_payload
              with _ -> Failure ("undecodable peer error for " ^ msg.f_id)))
    | Some _ | None -> () (* a duplicate, or a job another copy answered *)
  end
  else if k = P.k_ping then (if t.spawned then alive ())
  else if k = P.k_trace && t.spawned then begin
    alive ();
    if Obs.Trace.enabled () then
      ignore (Obs.Trace.inject ~pid:p.pid ~offset_us:p.offset_us msg.f_payload)
  end
  else
    lose ~killed:true ~damage:true t i
      (Printf.sprintf "sent an unexpected frame kind %d" k)

(* every complete frame the peer sent, then its death: frames that
   arrived before an EOF still count *)
let rec drain t i c =
  match Transport.recv c with
  | exception Transport.Protocol_damage reason ->
    lose ~killed:true ~damage:true t i ("sent a corrupt frame: " ^ reason)
  | Some msg -> (
    handle t i c msg;
    (* unless [handle] lost the peer *)
    match t.peers.(i).link with
    | Greeting c' | Ready c' when c' == c -> drain t i c
    | Idle _ | Greeting _ | Ready _ | Retired -> ())
  | None -> (
    match Transport.status c with
    | Transport.Closed reason -> lose t i reason
    | Transport.Connecting | Transport.Up -> ())

let send_copy t i c id j =
  Transport.send c ~kind:P.k_job ~id ~payload:j.j_payload;
  (* the clocks start once the job is encoded and queued: a large
     frame's encode is not the peer's time *)
  let now = Unix.gettimeofday () in
  j.j_copies <- { cp_peer = i; cp_t0 = now } :: j.j_copies;
  if t.spawned then t.peers.(i).due <- now +. hb_grace t.cfg
  else Obs.Metrics.incr m_dispatched;
  match Transport.status c with
  | Transport.Closed reason -> lose t i reason
  | Transport.Connecting | Transport.Up -> ()

(* the ready peer with the lightest load under its capacity, ties to
   the lowest index (deterministic), other than [not_on] *)
let pick ?(not_on = -1) t =
  let capacity = if t.spawned then 1 else max 1 t.cfg.slots in
  let best = ref None in
  Array.iteri
    (fun i p ->
      match p.link with
      | Ready c when i <> not_on -> (
        let l = List.length (held t i) in
        match !best with
        | Some (_, _, bl) when bl <= l -> ()
        | Some _ | None -> if l < capacity then best := Some (i, c, l))
      | Idle _ | Greeting _ | Ready _ | Retired -> ())
    t.peers;
  Option.map (fun (i, c, _) -> (i, c)) !best

let rec dispatch t =
  if not (Queue.is_empty t.queue) then
    match pick t with
    | None -> ()
    | Some (i, c) ->
      let id = Queue.pop t.queue in
      Option.iter (send_copy t i c id) (Hashtbl.find_opt t.jobs id);
      dispatch t

(* past a deadline: a handshake; a job, which fails at once and kills
   its child, or is its executor's fault; a busy child's heartbeat *)
let expire t =
  let now = Unix.gettimeofday () in
  let silent = "went silent (heartbeat lost; killed)" in
  Array.iteri
    (fun i p ->
      let held = held t i in
      let late =
        List.filter (fun (_, _, c) -> now > c.cp_t0 +. t.cfg.timeout_s) held
      in
      match (p.link, late) with
      | Greeting _, _ when now > p.due ->
        lose ~killed:true t i (if t.spawned then silent else "handshake timed out")
      | Ready _, (id, _, _) :: _ when not t.spawned ->
        lose t i
          (Printf.sprintf "job %s exceeded its %gs network deadline" id
             t.cfg.timeout_s)
      | Ready _, _ :: _ ->
        Obs.Metrics.incr m_timeouts;
        List.iter
          (fun (id, j, c) ->
            drop_copy t id j c ~detail:"timed out";
            note t "worker.timeout" [ ("unit", id) ];
            let failure = Timed_out { timeout_s = t.cfg.timeout_s } in
            finish t id (Error (t.proto.p_fail ~id failure)))
          late;
        lose ~killed:true t i "timed out"
      | Ready _, [] when t.spawned && held <> [] && now >= p.due ->
        lose ~killed:true t i silent
      | (Idle _ | Greeting _ | Ready _ | Retired), _ -> ())
    t.peers

(* a dialed job still unanswered after [hedge_s] gets a second copy on
   another executor *)
let hedge t =
  if (not t.spawned) && t.cfg.hedge_s > 0. then begin
    let now = Unix.gettimeofday () in
    Hashtbl.fold
      (fun id j acc ->
        match j.j_copies with
        | [ c ] when now -. c.cp_t0 >= t.cfg.hedge_s -> (id, j, c) :: acc
        | _ -> acc)
      t.jobs []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
    |> List.iter (fun (id, j, c) ->
           match pick ~not_on:c.cp_peer t with
           | Some (i, conn) when j.j_copies = [ c ] && Hashtbl.mem t.jobs id ->
             Obs.Metrics.incr m_hedged;
             note t "remote.hedge" [ ("unit", id); ("exec", exec_name t i) ];
             send_copy t i conn id j
           | Some _ | None -> ())
  end

(* every executor is retired: no copy will answer again.  Settle every
   job still held, locally or as E0703/E0704. *)
let settle t =
  if
    (not t.spawned)
    && Hashtbl.length t.jobs > 0
    && Array.for_all (fun p -> p.link = Retired) t.peers
  then begin
    Queue.clear t.queue;
    Hashtbl.fold (fun id j acc -> (id, j) :: acc) t.jobs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.iter (fun (id, j) ->
           if j.j_attempts = 0 then
             j.j_last <-
               Unreachable
                 { attempts = 0; detail = "every executor is quarantined" };
           give_up t id j)
  end

let step t =
  start_peers t;
  Array.iteri
    (fun i p ->
      match p.link with
      | Greeting c | Ready c ->
        Transport.poll c;
        drain t i c
      | Idle _ | Retired -> ())
    t.peers;
  expire t;
  hedge t;
  dispatch t;
  settle t

let links t =
  let conns = ref [] and d = ref infinity in
  let until at = d := Float.min !d at in
  Array.iter
    (fun p ->
      match p.link with
      | Idle at -> if not (Queue.is_empty t.queue) then until at
      | Greeting c ->
        conns := c :: !conns;
        until p.due
      | Ready c -> conns := c :: !conns
      | Retired -> ())
    t.peers;
  Hashtbl.iter
    (fun _ j ->
      List.iter
        (fun c ->
          until (c.cp_t0 +. t.cfg.timeout_s);
          if t.spawned then until t.peers.(c.cp_peer).due
          else if t.cfg.hedge_s > 0. && List.length j.j_copies = 1 then
            until (c.cp_t0 +. t.cfg.hedge_s))
        j.j_copies)
    t.jobs;
  (!conns, !d)

let check_open t what =
  if t.closed then invalid_arg ("Pool." ^ what ^ ": pool is shut down")

let submit t ~id payload =
  check_open t "submit";
  let j_last = Unreachable { attempts = 0; detail = "never dispatched" } in
  Hashtbl.replace t.jobs id
    { j_payload = payload; j_attempts = 0; j_copies = []; j_last };
  Queue.push id t.queue

let pump = step
let poll t = Queue.take_opt t.results

let next t =
  check_open t "next";
  if pending t = 0 then invalid_arg "Pool.next: no job pending";
  step t;
  while Queue.is_empty t.results do
    Option.iter (fun f -> f ()) t.cfg.tick;
    let conns, deadline = links t in
    if conns = [] && deadline = infinity then
      raise (Pool_down "no live peers and nothing left to wait for");
    Transport.wait conns
      ~timeout_s:
        (if t.cfg.tick <> None then 0.0005
         else Float.max 0.005 (deadline -. Unix.gettimeofday ()));
    step t
  done;
  Queue.pop t.results

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun p ->
        match p.link with
        | Greeting c | Ready c ->
          (* no graceful drain: children hold no state worth flushing,
             and a chaos-hung child would never honour the EOF *)
          Transport.close c;
          if t.spawned then ignore (stop_child p.pid);
          p.link <- Retired
        | Idle _ | Retired -> ())
      t.peers
  end
