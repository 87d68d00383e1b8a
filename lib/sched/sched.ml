type backend =
  | Serial
  | Parallel of int
  | Pool of Remote.Pool.config

let backend_name = function
  | Serial -> "serial"
  | Parallel n -> Printf.sprintf "parallel-%d" n
  | Pool { peers = Spawn n; _ } -> Printf.sprintf "workers-%d" (max 1 n)
  | Pool { peers = Dial addrs; _ } ->
    Printf.sprintf "remote-%d" (List.length addrs)

let default_jobs () = Domain.recommended_domain_count ()

let jobs = function
  | Serial -> 1
  | Parallel n -> max 1 n
  | Pool { peers = Spawn n; _ } -> max 1 n
  | Pool { peers = Dial addrs; slots; _ } ->
    (* a pool without executors still runs one local compile at a time *)
    max 1 (List.length addrs * max 1 slots)

type ('job, 'result) action = Run of 'job | Done of 'result

type ('job, 'result) codec = {
  c_proto : Remote.Pool.proto;
  c_encode_job : 'job -> string;
  c_decode_result : string -> 'result;
}

type 'result outcome =
  | Completed of 'result
  | Failed of exn
  | Skipped of string

type slots = { sl_jobs : int; sl_busy_s : float array; sl_wall_s : float }

(* the most recent run's slot accounting; builds are driven from the
   main domain, so a plain ref suffices *)
let last_slots_ref : slots option ref = ref None
let last_slots () = !last_slots_ref

let m_dispatched = Obs.Metrics.counter "sched.dispatched"
let m_inline = Obs.Metrics.counter "sched.inline"
let m_retries = Obs.Metrics.counter "sched.retries"
let m_domains = Obs.Metrics.counter "sched.domains"
let g_jobs = Obs.Metrics.gauge "sched.jobs"

(* the ready queue: highest priority first, and — the determinism
   anchor — caller order among equals.  Whatever the priority map says,
   ties can never perturb dispatch order away from the serial order. *)
module Ready = Set.Make (struct
  type t = float * int * string

  let compare (pa, sa, na) (pb, sb, nb) =
    match Float.compare pb pa with
    | 0 -> ( match Int.compare sa sb with 0 -> String.compare na nb | c -> c)
    | c -> c
end)

(* Per-node scheduling state, driven entirely by the calling domain.
   One gate: [ns_waiting] counts unfinished dependencies; at zero the
   node is either dispatched or, if some dependency failed, skipped. *)
type 'result node_state = {
  ns_seq : int;  (** caller-order index — the deterministic tie-break *)
  ns_priority : float;
  mutable ns_waiting : int;  (** unfinished dependencies *)
  mutable ns_poisoned : bool;
      (** some dependency failed or was skipped (the culprit is computed
          deterministically at skip time, see [skip_root]) *)
  mutable ns_outcome : 'result outcome option;
}

(* The one surface every backend presents to the drive loop in [run]:
   [submit] hands a job to a free slot, [next] blocks until some slot
   finishes one, [slot_busy] reports each slot's busy seconds once the
   run is over, and [shutdown] releases the slots. *)
type ('job, 'result) pool = {
  submit : string -> 'job -> unit;
  next : unit -> string * ('result, exn) result;
  slot_busy : unit -> float array;
  shutdown : unit -> unit;
}

let run_timed busy i exec job =
  let t0 = Unix.gettimeofday () in
  let result = match exec job with r -> Ok r | exception exn -> Error exn in
  busy.(i) <- busy.(i) +. Float.max 0. (Unix.gettimeofday () -. t0);
  result

(* Serial: the calling domain is the one slot, and [submit] runs the job
   on the spot *)
let serial_pool exec =
  let busy = [| 0. |] in
  let results = Queue.create () in
  {
    submit =
      (fun node job -> Queue.push (node, run_timed busy 0 exec job) results);
    next = (fun () -> Queue.pop results);
    slot_busy = (fun () -> Array.copy busy);
    shutdown = ignore;
  }

(* Parallel: [n] worker domains sharing a job queue; each domain only
   ever writes its own [busy] slot.  The domains are spawned with the
   first job, so a run that compiles nothing spawns none. *)
let domain_pool exec n =
  let busy = Array.make n 0. in
  let lock = Mutex.create () in
  let work_ready = Condition.create () in
  let result_ready = Condition.create () in
  let jobs = Queue.create () in
  let results = Queue.create () in
  let quit = ref false in
  let rec work slot =
    Mutex.lock lock;
    while Queue.is_empty jobs && not !quit do
      Condition.wait work_ready lock
    done;
    if Queue.is_empty jobs then Mutex.unlock lock
    else begin
      let node, job = Queue.pop jobs in
      Mutex.unlock lock;
      let result = run_timed busy slot exec job in
      Mutex.protect lock (fun () ->
          Queue.push (node, result) results;
          Condition.signal result_ready);
      work slot
    end
  in
  let domains = ref [] in
  {
    submit =
      (fun node job ->
        if !domains = [] then begin
          Obs.Metrics.add m_domains n;
          domains := List.init n (fun i -> Domain.spawn (fun () -> work i))
        end;
        Mutex.protect lock (fun () ->
            Queue.push (node, job) jobs;
            Condition.signal work_ready));
    next =
      (fun () ->
        Mutex.protect lock (fun () ->
            while Queue.is_empty results do
              Condition.wait result_ready lock
            done;
            Queue.pop results));
    slot_busy = (fun () -> Array.copy busy);
    shutdown =
      (fun () ->
        Mutex.protect lock (fun () ->
            quit := true;
            Condition.broadcast work_ready);
        List.iter Domain.join !domains);
  }

(* the pool: out-of-process slots that move bytes; the codec lifts it
   to the caller's job and result types.  Even a 1-worker pool goes out
   of process — isolation, not parallelism, is what it buys. *)
let pool_of ?codec backend ~exec ~slots =
  match (backend, codec) with
  | (Serial | Parallel _), _ when slots <= 1 -> serial_pool exec
  | (Serial | Parallel _), _ -> domain_pool exec slots
  | Pool _, None -> invalid_arg "Sched.run: the Pool backend needs a codec"
  | Pool cfg, Some codec ->
    let p = Remote.Pool.create cfg codec.c_proto in
    {
      submit =
        (fun node job -> Remote.Pool.submit p ~id:node (codec.c_encode_job job));
      next =
        (fun () ->
          let node, res = Remote.Pool.next p in
          ( node,
            Result.bind res (fun payload ->
                match codec.c_decode_result payload with
                | result -> Ok result
                | exception exn -> Error exn) ));
      slot_busy = (fun () -> Remote.Pool.slot_busy p);
      shutdown = (fun () -> Remote.Pool.shutdown p);
    }

let run ?(retries = 0) ?(backoff_s = 0.001) ?(backoff_cap_s = 1.0)
    ?(retryable = fun _ -> false) ?(keep_going = false)
    ?(fatal = fun _ -> false) ?codec ?priority backend ~order ~deps
    ~prepare ~execute ~complete =
  Obs.Trace.span ~cat:"sched"
    ~args:[ ("backend", backend_name backend) ]
    "sched.run"
  @@ fun () ->
  (* bounded retry with exponential backoff around every node callback:
     transient faults (a flaky file system, a racing process) get
     [retries] more chances before poisoning the node's cone.  The sleep
     is capped and jittered — several domains retrying the same flaky
     resource must not wake in lock-step and collide again.  A backoff
     seeds its generator on its first delay, so a callback that never
     retries costs no randomness. *)
  let attempt f x =
    let bo = Support.Backoff.create ~base_s:backoff_s ~cap_s:backoff_cap_s () in
    let rec go k =
      match f x with
      | v -> v
      | exception e when k < retries && retryable e ->
        Obs.Metrics.incr m_retries;
        let d = Support.Backoff.delay bo ~attempt:k in
        Obs.Trace.instant ~cat:"sched"
          ~args:
            [
              ("attempt", string_of_int k);
              ("delay_s", Printf.sprintf "%.17g" d);
            ]
          "sched.retry";
        if d > 0. then Unix.sleepf d;
        go (k + 1)
    in
    go 0
  in
  let prepare = attempt prepare
  and complete node = attempt (complete node) in
  let exec = attempt execute in
  let prio = match priority with None -> fun _ -> 0. | Some f -> f in
  let slots = min (jobs backend) (max 1 (List.length order)) in
  Obs.Metrics.set g_jobs slots;
  let run_t0 = Unix.gettimeofday () in
  let states : (string, 'r node_state) Hashtbl.t =
    Hashtbl.create (List.length order)
  in
  let dependents : (string, string list) Hashtbl.t =
    Hashtbl.create (List.length order)
  in
  List.iteri
    (fun seq node ->
      let ds = deps node in
      Hashtbl.replace states node
        {
          ns_seq = seq;
          ns_priority = prio node;
          ns_waiting = List.length ds;
          ns_poisoned = false;
          ns_outcome = None;
        };
      List.iter
        (fun dep ->
          Hashtbl.replace dependents dep
            (node :: Option.value ~default:[] (Hashtbl.find_opt dependents dep)))
        ds)
    order;
  let dependents_of node =
    Option.value ~default:[] (Hashtbl.find_opt dependents node)
  in
  let remaining = ref (List.length order) in
  let ready = ref Ready.empty in
  let push node st =
    ready := Ready.add (st.ns_priority, st.ns_seq, node) !ready
  in
  (* jobs handed to a slot and not yet resolved; the pump dispatches
     from the ready queue only while this is below [slots], so
     late-arriving high-priority nodes are never stuck behind a long
     FIFO of already-queued low-priority ones *)
  let inflight = ref 0 in
  let pool = pool_of ?codec backend ~exec ~slots in
  (* which failed root a skipped node blames.  Evaluated only once every
     dependency has finished, so it is a function of the final outcome
     classes alone — the earliest failed root in caller order — and can
     never depend on completion timing.  (First-poisoner-wins would
     report whichever failure happened to land first, which differs
     between serial and parallel runs.) *)
  let skip_root node =
    let best = ref None in
    List.iter
      (fun dep ->
        let root =
          match (Hashtbl.find states dep).ns_outcome with
          | Some (Failed _) -> Some dep
          | Some (Skipped r) -> Some r
          | Some (Completed _) | None -> None
        in
        match root with
        | Some r -> (
          let seq = (Hashtbl.find states r).ns_seq in
          match !best with
          | Some (bseq, _) when bseq <= seq -> ()
          | Some _ | None -> best := Some (seq, r))
        | None -> ())
      (deps node);
    match !best with
    | Some (_, r) -> r
    | None -> assert false (* only poisoned nodes are skipped *)
  in
  let rec finish node outcome =
    let state = Hashtbl.find states node in
    state.ns_outcome <- Some outcome;
    decr remaining;
    let failed = match outcome with Completed _ -> false | _ -> true in
    List.iter
      (fun dependent ->
        let dstate = Hashtbl.find states dependent in
        if failed then dstate.ns_poisoned <- true;
        dstate.ns_waiting <- dstate.ns_waiting - 1;
        if dstate.ns_waiting = 0 then
          if dstate.ns_poisoned then
            finish dependent (Skipped (skip_root dependent))
          else push dependent dstate)
      (dependents_of node)
  (* an exception the caller declared fatal (a signal-driven interrupt,
     not a unit failure) aborts the whole run immediately — even under
     [keep_going], which only shields per-unit failures.  The raise
     unwinds through the Fun.protect below, so pools still join. *)
  and fail node exn =
    if fatal exn then raise exn else finish node (Failed exn)
  and settle node result =
    match complete node result with
    | result -> finish node (Completed result)
    | exception exn -> fail node exn
  in
  let arrive node = function
    | Ok result -> settle node result
    | Error exn -> fail node exn
  in
  let start node =
    match prepare node with
    | exception exn -> fail node exn
    | Done result ->
      Obs.Metrics.incr m_inline;
      arrive node (Ok result)
    | Run job ->
      Obs.Metrics.incr m_dispatched;
      incr inflight;
      pool.submit node job
  in
  (* the pump: hand the best ready node to a free slot, repeatedly *)
  let rec pump () =
    if (not (Ready.is_empty !ready)) && !inflight < slots then begin
      let ((_, _, node) as top) = Ready.min_elt !ready in
      ready := Ready.remove top !ready;
      start node;
      pump ()
    end
  in
  List.iter
    (fun node ->
      let state = Hashtbl.find states node in
      if state.ns_waiting = 0 then push node state)
    order;
  (* the drive loop, one for every backend: resolve the next finished
     job, then refill the slots *)
  Fun.protect ~finally:pool.shutdown (fun () ->
      pump ();
      while !remaining > 0 do
        let node, res = pool.next () in
        decr inflight;
        arrive node res;
        pump ()
      done);
  let busy = pool.slot_busy () in
  last_slots_ref :=
    Some
      {
        sl_jobs = Array.length busy;
        sl_busy_s = busy;
        sl_wall_s = Unix.gettimeofday () -. run_t0;
      };
  let outcomes =
    List.map
      (fun node ->
        match (Hashtbl.find states node).ns_outcome with
        | Some outcome -> (node, outcome)
        | None -> assert false (* every node is finished by now *))
      order
  in
  (* deterministic failure: raise for the earliest failed node in
     [order], exactly as a serial left-to-right run would have.  Under
     [keep_going] the caller reads failures out of the outcome list
     instead; every node not downstream of a failure has still run. *)
  if not keep_going then
    (match
       List.find_opt (function _, Failed _ -> true | _ -> false) outcomes
     with
    | Some (_, Failed exn) -> raise exn
    | Some _ | None -> ());
  outcomes
