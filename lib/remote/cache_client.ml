module Frame = Pickle.Frame

type t = {
  addr : Transport.addr;
  local : Cache.ops option;
  tick : (unit -> unit) option;
  chaos : Netchaos.injector option;
  timeout_s : float;
  log : string -> unit;
  backoff : Support.Backoff.t;
  mutable conn : Transport.conn option;  (** greeted and usable *)
  mutable degraded : bool;
  mutable warned : bool;
  mutable dial_attempts : int;
  mutable retry_at : float;
  mutable hits : int;
  mutable misses : int;
  mutable puts : int;
  mutable closed : bool;
}

let m_remote_hits = Obs.Metrics.counter "cache_client.remote_hits"
let m_remote_misses = Obs.Metrics.counter "cache_client.remote_misses"
let m_remote_puts = Obs.Metrics.counter "cache_client.remote_puts"
let m_degraded = Obs.Metrics.counter "cache_client.degraded"

let create ?local ?tick ?chaos ?(timeout_s = 5.) ?(log = prerr_endline) addr =
  {
    addr;
    local;
    tick;
    chaos;
    timeout_s;
    log;
    backoff = Support.Backoff.create ~base_s:0.2 ~cap_s:10. ();
    conn = None;
    degraded = false;
    warned = false;
    dial_attempts = 0;
    retry_at = 0.;
    hits = 0;
    misses = 0;
    puts = 0;
    closed = false;
  }

exception Gave_up of string

let drop_conn t =
  (match t.conn with Some c -> Transport.close c | None -> ());
  t.conn <- None

(* remote failure: log the first one, park in degraded mode, and
   schedule a redial — the local store carries the build meanwhile *)
let degrade t reason =
  drop_conn t;
  if not t.degraded then Obs.Metrics.incr m_degraded;
  t.degraded <- true;
  if not t.warned then begin
    t.warned <- true;
    t.log
      (Printf.sprintf
         "warning: shared cache %s unreachable (%s); continuing with the \
          local cache only"
         (Transport.addr_to_string t.addr)
         reason)
  end;
  t.dial_attempts <- t.dial_attempts + 1;
  t.retry_at <-
    Unix.gettimeofday ()
    +. Support.Backoff.delay t.backoff ~attempt:(t.dial_attempts - 1)

(* every transport failure mode — deadline, close, damage, a refused
   handshake — funnels into Gave_up *)
let io f =
  try f () with
  | Transport.Timed_out -> raise (Gave_up "operation timed out")
  | Transport.Unreachable reason | Transport.Protocol_damage reason ->
    raise (Gave_up reason)

(* a greeted connection, dialing and handshaking if needed *)
let connect t =
  match t.conn with
  | Some c -> c
  | None ->
    if t.degraded && Unix.gettimeofday () < t.retry_at then
      raise (Gave_up "degraded; redial not due yet");
    let deadline = Unix.gettimeofday () +. t.timeout_s in
    let conn = io (fun () -> Transport.dial ?chaos:t.chaos t.addr) in
    io (fun () ->
        Transport.greet ?tick:t.tick conn ~version:Protocol.version_cache
          ~deadline);
    t.conn <- Some conn;
    if t.degraded then begin
      t.degraded <- false;
      t.warned <- false;
      t.dial_attempts <- 0;
      t.log
        (Printf.sprintf "shared cache %s is back; resuming read-through"
           (Transport.addr_to_string t.addr))
    end;
    conn

(* one remote round-trip; Gave_up degrades, caller falls back to local *)
let rpc t ~kind ~key ~payload =
  if t.closed then raise (Gave_up "client closed");
  let conn = connect t in
  let deadline = Unix.gettimeofday () +. t.timeout_s in
  Transport.send conn ~kind ~id:key ~payload;
  (match Transport.status conn with
  | Transport.Closed reason -> raise (Gave_up reason)
  | Transport.Connecting | Transport.Up -> ());
  (* replies can interleave only if we pipelined; we don't — but a
     chaos-duplicated reply from the previous op may still be queued,
     so skip frames whose key is not ours *)
  let rec next () =
    let msg = io (fun () -> Transport.await ?tick:t.tick conn ~deadline) in
    if String.equal msg.Frame.f_id key then msg else next ()
  in
  next ()

let remote_find t key =
  match rpc t ~kind:Protocol.k_cache_get ~key ~payload:"" with
  | msg when msg.Frame.f_kind = Protocol.k_cache_hit ->
    t.hits <- t.hits + 1;
    Obs.Metrics.incr m_remote_hits;
    Some msg.Frame.f_payload
  | msg when msg.Frame.f_kind = Protocol.k_cache_miss ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr m_remote_misses;
    None
  | msg ->
    raise
      (Gave_up (Printf.sprintf "unexpected reply kind %d" msg.Frame.f_kind))

let remote_put t key bytes =
  match rpc t ~kind:Protocol.k_cache_put ~key ~payload:bytes with
  | msg when msg.Frame.f_kind = Protocol.k_cache_ok ->
    t.puts <- t.puts + 1;
    Obs.Metrics.incr m_remote_puts
  | msg ->
    raise
      (Gave_up (Printf.sprintf "unexpected reply kind %d" msg.Frame.f_kind))

let local_find t key =
  match t.local with Some l -> l.Cache.o_find key | None -> None

let o_find t key =
  match local_find t key with
  | Some bytes -> Some bytes
  | None -> (
    match remote_find t key with
    | Some bytes ->
      (* read-through: the next probe for this key stays local *)
      (match t.local with
      | Some l -> l.Cache.o_store key bytes
      | None -> ());
      Some bytes
    | None -> None
    | exception Gave_up reason ->
      degrade t reason;
      None)

let o_store t key bytes =
  (match t.local with Some l -> l.Cache.o_store key bytes | None -> ());
  match remote_put t key bytes with
  | () -> ()
  | exception Gave_up reason -> degrade t reason

let o_invalidate t key =
  match t.local with Some l -> l.Cache.o_invalidate key | None -> ()

let ops t =
  {
    Cache.o_find = o_find t;
    o_store = o_store t;
    o_invalidate = o_invalidate t;
  }

let degraded t = t.degraded
let remote_hits t = t.hits
let remote_misses t = t.misses
let remote_puts t = t.puts

let close t =
  t.closed <- true;
  drop_conn t
