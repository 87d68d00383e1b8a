(* The distributed build fabric, driven forklessly in one process: the
   executor and cache services run in [Inline] reactor mode on real
   sockets, and the pool's [tick] and the cache client's [tick] pump
   their reactors from inside every client wait loop — so builds cross
   actual socket buffers while client and servers interleave
   deterministically in a single domain (fork is unsafe once OCaml
   domains exist, and the chaos matrix must be reproducible anyway).

   The headline harness: over random DAGs × policies × schedules ×
   seeded network fault plans (refused connects, resets, black holes,
   stragglers, torn frames, duplicated replies), every remote build
   must converge to bins byte-identical to a fault-free serial build —
   and when every executor is dead, the build must still complete
   locally (or fail E0703, when fallback is off). *)

module Gen = Workload.Gen
module Driver = Irm.Driver
module Wire = Irm.Wire
module Diag = Support.Diag
module Transport = Remote.Transport
module Netchaos = Remote.Netchaos
module Netsrv = Remote.Netsrv
module Pool = Remote.Pool
module Exec = Remote.Exec
module Cached = Remote.Cached
module Cache_client = Remote.Cache_client

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smlsep-r%d-%d.sock" (Unix.getpid ()) !n)

let bins_of fs sources =
  List.map (fun f -> Option.get (fs.Vfs.fs_read (f ^ ".bin"))) sources

(* the fault-free serial reference for a topology *)
let reference topology =
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  bins_of fs sources

(* a fleet config tuned for in-process pumping: short deadlines, eager
   hedge, near-zero backoff, all logging captured *)
let fleet_cfg ?(chaos = []) ?(fallback = true) ?(log = ignore) ~tick execs =
  {
    (Pool.default_config (Dial execs)) with
    Pool.timeout_s = 2.;
    dial_timeout_s = 2.;
    retries = 2;
    hedge_s = 0.3;
    quarantine = 2;
    backoff_s = 0.001;
    backoff_cap_s = 0.01;
    net_chaos = chaos;
    tick = Some tick;
    local_fallback = fallback;
    log;
  }

let metric name = Option.value ~default:0 (Obs.Metrics.find name)

let with_exec f =
  let exec =
    Exec.create ~mode:Exec.Inline
      (Transport.Unix_sock (fresh_sock ()))
      (Wire.proto ())
  in
  Fun.protect ~finally:(fun () -> Exec.stop exec) @@ fun () -> f exec

let pump_exec exec () = if Exec.running exec then Exec.step ~timeout_s:0. exec

(* ------------------------------------------------------------------ *)
(* Addresses and fault plans                                           *)
(* ------------------------------------------------------------------ *)

let test_parse_addr () =
  (match Transport.parse_addr "unix:/tmp/x.sock" with
  | Ok (Transport.Unix_sock p) -> Alcotest.(check string) "unix" "/tmp/x.sock" p
  | _ -> Alcotest.fail "unix: must parse");
  (match Transport.parse_addr "tcp:localhost:7777" with
  | Ok (Transport.Tcp (h, p)) ->
    Alcotest.(check string) "host" "localhost" h;
    Alcotest.(check int) "port" 7777 p
  | _ -> Alcotest.fail "tcp: must parse");
  (match Transport.parse_addr "/var/run/d.sock" with
  | Ok (Transport.Unix_sock _) -> ()
  | _ -> Alcotest.fail "bare path is a unix socket");
  match Transport.parse_addr "tcp:host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad port must not parse"

let test_seeded_plans_deterministic () =
  let p1 = Netchaos.seeded_plan ~seed:42 ~ops:40 in
  let p2 = Netchaos.seeded_plan ~seed:42 ~ops:40 in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "plans are non-empty" true (List.length p1 > 0);
  let all_same =
    List.for_all
      (fun s -> Netchaos.seeded_plan ~seed:s ~ops:40 = p1)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "different seeds diverge" false all_same;
  (* the env contract the CI chaos job uses *)
  Unix.putenv Netchaos.env_var "42:40";
  let from_env = Netchaos.of_env () in
  Unix.putenv Netchaos.env_var "";
  Alcotest.(check bool) "SMLSEP_NET_CHAOS=SEED:OPS reproduces the plan" true
    (from_env = Some p1)

let test_chaos_refused_connect () =
  let inj =
    Netchaos.injector
      [ { Netchaos.ce_op = Netchaos.Connect; ce_at = 1; ce_fault = Netchaos.Refuse } ]
  in
  let addr = Transport.Unix_sock (fresh_sock ()) in
  (match Transport.dial ~chaos:inj addr with
  | _ -> Alcotest.fail "chaos Refuse must raise"
  | exception Transport.Unreachable _ -> ());
  Alcotest.(check int) "fault fired" 1 (Netchaos.fired inj)

(* ------------------------------------------------------------------ *)
(* Remote builds against live executors                                *)
(* ------------------------------------------------------------------ *)

let test_remote_build_matches_serial () =
  let topology = Gen.Diamond 3 in
  let ref_bins = reference topology in
  with_exec @@ fun exec ->
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  let cfg = fleet_cfg ~tick:(pump_exec exec) [ Exec.addr exec ] in
  let stats =
    Driver.build mgr ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff
      ~sources
  in
  Alcotest.(check int) "every unit compiled remotely"
    (List.length sources)
    (List.length stats.Driver.st_recompiled);
  Alcotest.(check bool) "bins byte-identical to serial" true
    (bins_of fs sources = ref_bins)

(* regression: a Reset that lands on the job send itself (the frame
   dies before a copy is registered) used to strand the job — popped
   from the queue, absent from every copy list, invisible to expire
   and hedge — and next spun forever.  The failed send must
   count as an attempt and requeue. *)
let test_send_reset_requeues_the_job () =
  let topology = Gen.Diamond 3 in
  let ref_bins = reference topology in
  with_exec @@ fun exec ->
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  (* send #1 is the HELLO; #3 is a job frame mid-build *)
  let chaos =
    [ { Netchaos.ce_op = Netchaos.Send; ce_at = 3; ce_fault = Netchaos.Reset } ]
  in
  let cfg = fleet_cfg ~chaos ~tick:(pump_exec exec) [ Exec.addr exec ] in
  let stats =
    Driver.build mgr ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff
      ~sources
  in
  Alcotest.(check int) "every unit compiled"
    (List.length sources)
    (List.length stats.Driver.st_recompiled);
  Alcotest.(check bool) "bins byte-identical to serial" true
    (bins_of fs sources = ref_bins)

let test_two_executors_share_the_build () =
  let topology = Gen.Fanout 6 in
  let ref_bins = reference topology in
  with_exec @@ fun e1 ->
  with_exec @@ fun e2 ->
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  let tick () =
    pump_exec e1 ();
    pump_exec e2 ()
  in
  let cfg = fleet_cfg ~tick [ Exec.addr e1; Exec.addr e2 ] in
  let stats =
    Driver.build mgr ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff
      ~sources
  in
  (* slot accounting is per executor: one busy entry each *)
  Alcotest.(check int) "two executor slots accounted" 2 stats.Driver.st_jobs;
  Alcotest.(check bool) "both executors held work" true
    (List.for_all (fun s -> s >= 0.) stats.Driver.st_slot_busy_s);
  Alcotest.(check bool) "bins byte-identical to serial" true
    (bins_of fs sources = ref_bins)

let test_all_executors_dead_falls_back () =
  let topology = Gen.Chain 4 in
  let ref_bins = reference topology in
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  let logs = ref [] in
  (* nobody has ever listened on these addresses *)
  let execs =
    [ Transport.Unix_sock (fresh_sock ()); Transport.Unix_sock (fresh_sock ()) ]
  in
  let cfg =
    fleet_cfg ~log:(fun m -> logs := m :: !logs) ~tick:(fun () -> ()) execs
  in
  let stats =
    Driver.build mgr ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff
      ~sources
  in
  Alcotest.(check int) "build completed in full" (List.length sources)
    (List.length stats.Driver.st_recompiled);
  Alcotest.(check bool) "bins byte-identical to serial" true
    (bins_of fs sources = ref_bins);
  Alcotest.(check bool) "degradation warned once" true
    (List.exists
       (fun m ->
         let re = "local compiles" in
         let rec find i =
           i + String.length re <= String.length m
           && (String.sub m i (String.length re) = re || find (i + 1))
         in
         find 0)
       !logs)

let test_no_fallback_surfaces_e0703 () =
  let fs = Vfs.memory () in
  let project = Gen.create fs (Gen.Chain 3) Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  let cfg =
    fleet_cfg ~fallback:false
      ~tick:(fun () -> ())
      [ Transport.Unix_sock (fresh_sock ()) ]
  in
  match
    Driver.build mgr ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff
      ~sources
  with
  | _ -> Alcotest.fail "a fallback-less dead fleet must fail the build"
  | exception Diag.Error d ->
    Alcotest.(check string) "remote-unreachable diagnostic" "E0703"
      d.Diag.code

let test_executor_killed_mid_build () =
  let topology = Gen.Random_dag { units = 6; max_deps = 3; seed = 97 } in
  let ref_bins = reference topology in
  with_exec @@ fun exec ->
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  let logs = ref [] in
  let ticks = ref 0 in
  let tick () =
    incr ticks;
    (* the partition: after a few reactor turns the executor vanishes
       mid-build, taking whatever it held with it *)
    if !ticks = 5 && Exec.running exec then Exec.stop exec;
    pump_exec exec ()
  in
  let cfg = fleet_cfg ~log:(fun m -> logs := m :: !logs) ~tick [ Exec.addr exec ] in
  let stats =
    Driver.build mgr ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff
      ~sources
  in
  Alcotest.(check int) "build completed in full" (List.length sources)
    (List.length stats.Driver.st_recompiled);
  Alcotest.(check bool) "bins byte-identical to serial" true
    (bins_of fs sources = ref_bins)

(* a straggler is hedged: the first executor's reply is held up past
   the hedge threshold, so the job is re-dispatched to the second
   executor; the first answer wins and the late one is discarded *)
let test_straggler_is_hedged () =
  let topology = Gen.Chain 3 in
  let ref_bins = reference topology in
  with_exec @@ fun e1 ->
  with_exec @@ fun e2 ->
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  let tick () =
    pump_exec e1 ();
    pump_exec e2 ()
  in
  (* receives #1 and #2 are the HELLO replies, #3 the first job's *)
  let chaos =
    [
      {
        Netchaos.ce_op = Netchaos.Recv;
        ce_at = 3;
        ce_fault = Netchaos.Delay 1.0;
      };
    ]
  in
  let cfg = fleet_cfg ~chaos ~tick [ Exec.addr e1; Exec.addr e2 ] in
  let hedged0 = metric "pool.hedged" in
  let stats =
    Driver.build mgr ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff
      ~sources
  in
  Alcotest.(check bool) "a hedge fired" true
    (metric "pool.hedged" - hedged0 >= 1);
  Alcotest.(check int) "every unit compiled"
    (List.length sources)
    (List.length stats.Driver.st_recompiled);
  Alcotest.(check bool) "bins byte-identical to serial" true
    (bins_of fs sources = ref_bins)

(* ------------------------------------------------------------------ *)
(* The chaos matrix                                                    *)
(* ------------------------------------------------------------------ *)

(* random DAGs x policies x schedules x seeded fault plans: whatever
   the network does to the client side of every connection, the build
   converges byte-identically (published seed on failure) *)
let test_chaos_matrix () =
  let policies = [| Driver.Timestamp; Driver.Cutoff; Driver.Selective |] in
  let schedules = [| Driver.Wavefront; Driver.Critical_path |] in
  for seed = 1 to 12 do
    let topology = Gen.Random_dag { units = 5; max_deps = 3; seed } in
    let ref_bins = reference topology in
    let plan = Netchaos.seeded_plan ~seed ~ops:40 in
    with_exec @@ fun exec ->
    let fs = Vfs.memory () in
    let project = Gen.create fs topology Gen.default_profile in
    let sources = Gen.sources project in
    let mgr = Driver.create fs in
    let cfg = fleet_cfg ~chaos:plan ~tick:(pump_exec exec) [ Exec.addr exec ] in
    let policy = policies.(seed mod Array.length policies) in
    let schedule = schedules.(seed mod Array.length schedules) in
    let stats =
      Driver.build mgr ~backend:(Driver.Pool cfg) ~schedule ~policy ~sources
    in
    if bins_of fs sources <> ref_bins then
      Alcotest.failf
        "chaos divergence: seed %d (%s, %s, plan %s) — bins differ from serial"
        seed
        (Driver.policy_name policy)
        (Driver.schedule_name schedule)
        (Format.asprintf "%a" Netchaos.pp_plan plan);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: build completed in full" seed)
      (List.length sources)
      (List.length stats.Driver.st_recompiled)
  done

(* ------------------------------------------------------------------ *)
(* The shared cache service                                            *)
(* ------------------------------------------------------------------ *)

let with_cached f =
  let fs = Vfs.memory () in
  let srv =
    Cached.create ~shards:4 ~dir:"cache" (Transport.Unix_sock (fresh_sock ())) fs
  in
  Fun.protect ~finally:(fun () -> Cached.stop srv) @@ fun () -> f srv

let pump_cached srv () = if Cached.running srv then Cached.step ~timeout_s:0. srv

let test_cache_service_roundtrip () =
  with_cached @@ fun srv ->
  let tick = pump_cached srv in
  let a = Cache_client.create ~tick ~log:ignore (Cached.addr srv) in
  let b =
    Cache_client.create
      ~local:(Cache.ops (Cache.create (Vfs.memory ())))
      ~tick ~log:ignore (Cached.addr srv)
  in
  Fun.protect ~finally:(fun () ->
      Cache_client.close a;
      Cache_client.close b)
  @@ fun () ->
  let key = "deadbeefdeadbeefdeadbeefdeadbeef" in
  (Cache_client.ops a).Cache.o_store key "unit bytes";
  (* one builder's put is every builder's hit *)
  Alcotest.(check (option string)) "b reads a's put" (Some "unit bytes")
    ((Cache_client.ops b).Cache.o_find key);
  Alcotest.(check int) "hit came over the wire" 1 (Cache_client.remote_hits b);
  (* the read-through populated b's local store: the next probe is local *)
  Alcotest.(check (option string)) "second read is local" (Some "unit bytes")
    ((Cache_client.ops b).Cache.o_find key);
  Alcotest.(check int) "no second wire hit" 1 (Cache_client.remote_hits b);
  (* puts are idempotent — content addressing makes racers identical *)
  (Cache_client.ops b).Cache.o_store key "unit bytes";
  Alcotest.(check int) "no conflicts" 0 (Cached.conflicts srv);
  Alcotest.(check bool) "nobody degraded" false
    (Cache_client.degraded a || Cache_client.degraded b);
  Alcotest.(check bool) "misses counted" true
    (Cache_client.remote_misses a >= 0 && Cached.served srv > 0)

let test_cache_service_down_degrades () =
  let local = Cache.create (Vfs.memory ()) in
  let logs = ref [] in
  let c =
    Cache_client.create ~local:(Cache.ops local)
      ~log:(fun m -> logs := m :: !logs)
      ~timeout_s:0.2
      (Transport.Unix_sock (fresh_sock ()))
  in
  Fun.protect ~finally:(fun () -> Cache_client.close c) @@ fun () ->
  let ops = Cache_client.ops c in
  (* ops never raise; they quietly become local-only *)
  Alcotest.(check (option string)) "miss without a service" None
    (ops.Cache.o_find "00aa");
  ops.Cache.o_store "00aa" "bytes";
  Alcotest.(check bool) "client degraded" true (Cache_client.degraded c);
  Alcotest.(check (option string)) "local store still works" (Some "bytes")
    (ops.Cache.o_find "00aa");
  Alcotest.(check bool) "degradation warned" true (!logs <> [])

let test_shared_cache_warms_a_second_builder () =
  let topology = Gen.Diamond 2 in
  with_cached @@ fun srv ->
  let tick = pump_cached srv in
  let build_with_fresh_builder () =
    let fs = Vfs.memory () in
    let project = Gen.create fs topology Gen.default_profile in
    let sources = Gen.sources project in
    let mgr = Driver.create fs in
    let client =
      Cache_client.create
        ~local:(Cache.ops (Cache.create (Vfs.memory ())))
        ~tick ~log:ignore (Cached.addr srv)
    in
    Fun.protect ~finally:(fun () -> Cache_client.close client) @@ fun () ->
    let stats =
      Driver.build mgr ~cache:(Cache_client.ops client) ~policy:Driver.Cutoff
        ~sources
    in
    (stats, bins_of fs sources)
  in
  let cold, cold_bins = build_with_fresh_builder () in
  Alcotest.(check int) "cold builder compiles everything"
    (List.length cold.Driver.st_order)
    (List.length cold.Driver.st_recompiled);
  (* a different machine, same sources: every unit is a service hit *)
  let warm, warm_bins = build_with_fresh_builder () in
  Alcotest.(check int) "warm builder compiles nothing" 0
    (List.length warm.Driver.st_recompiled);
  Alcotest.(check int) "every unit came from the shared cache"
    (List.length warm.Driver.st_order)
    (List.length warm.Driver.st_cache_hits);
  Alcotest.(check bool) "warm bins byte-identical" true
    (warm_bins = cold_bins)

(* ------------------------------------------------------------------ *)
(* The reactor's watchdog                                              *)
(* ------------------------------------------------------------------ *)

(* a bare service with a short idle timeout: a client holding half a
   frame is cut loose, a greeted idle client is not (a fleet holds such
   connections between jobs), and the service keeps serving *)
let test_netsrv_watchdog () =
  let version = "smlsep-watchdog-test/1" in
  let path = fresh_sock () in
  let srv =
    Netsrv.create ~client_timeout_s:0.2 ~version (Transport.Unix_sock path)
  in
  Fun.protect ~finally:(fun () -> Netsrv.stop srv) @@ fun () ->
  let tick () = Netsrv.step srv in
  let deadline () = Unix.gettimeofday () +. 2. in
  let greeted () =
    let c = Transport.dial (Netsrv.addr srv) in
    Transport.greet ~tick c ~version ~deadline:(deadline ());
    c
  in
  let ping c id =
    Transport.send c ~kind:Remote.Protocol.k_ping ~id ~payload:"";
    let m = Transport.await ~tick c ~deadline:(deadline ()) in
    Alcotest.(check string) "ping echoed" id m.Pickle.Frame.f_id
  in
  let dropped () =
    Option.value ~default:0 (Obs.Metrics.find "netsrv.clients_dropped")
  in
  let dropped_before = dropped () in
  let idle = greeted () in
  let half = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close half) @@ fun () ->
  Unix.connect half (Unix.ADDR_UNIX path);
  let frame =
    Pickle.Frame.encode ~kind:Remote.Protocol.k_hello ~id:"" ~payload:version
  in
  ignore (Unix.write_substring half frame 0 4);
  (* pump the reactor across several idle timeouts *)
  let until = Unix.gettimeofday () +. 0.8 in
  while Unix.gettimeofday () < until do
    Netsrv.step ~timeout_s:0.02 srv
  done;
  Unix.set_nonblock half;
  (match Unix.read half (Bytes.create 16) 0 16 with
  | 0 -> ()
  | _ -> Alcotest.fail "the half-frame client was answered"
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Alcotest.fail "the half-frame client was never dropped");
  Alcotest.(check int) "one drop counted" 1 (dropped () - dropped_before);
  Alcotest.(check int) "the greeted idle client stays" 1
    (Netsrv.connections srv);
  ping idle "idle";
  let fresh = greeted () in
  ping fresh "fresh";
  Transport.close idle;
  Transport.close fresh

(* ------------------------------------------------------------------ *)
(* The one wait                                                        *)
(* ------------------------------------------------------------------ *)

let pair () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (Transport.of_fd a, b)

let elapsed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* the shared wait over socketpairs: any readable connection (or a
   pending accept) ends it; writability counts only while output is
   queued; a closed connection ends it at once, without raising *)
let test_wait () =
  let c1, p1 = pair () and c2, p2 = pair () in
  Fun.protect ~finally:(fun () ->
      List.iter Transport.close [ c1; c2 ];
      List.iter Unix.close [ p1; p2 ])
  @@ fun () ->
  let slept = elapsed (fun () -> Transport.wait [ c1; c2 ] ~timeout_s:0.1) in
  Alcotest.(check bool) "idle connections sleep the timeout" true
    (slept >= 0.09);
  let frame =
    Pickle.Frame.encode ~kind:Remote.Protocol.k_ping ~id:"x" ~payload:""
  in
  ignore (Unix.write_substring p2 frame 0 (String.length frame));
  let woke = elapsed (fun () -> Transport.wait [ c1; c2 ] ~timeout_s:10.) in
  Alcotest.(check bool) "the second connection's frame wakes it" true
    (woke < 1.);
  Transport.poll c2;
  Alcotest.(check bool) "and it is there to receive" true
    (Transport.recv c2 <> None);
  (* more output than the socket buffers hold, and a peer not reading:
     the queue stays, and the wait sleeps until the peer drains *)
  Transport.send c1 ~kind:Remote.Protocol.k_ping ~id:"big"
    ~payload:(String.make (4 * 1024 * 1024) 'x');
  Alcotest.(check bool) "output queued" true (snd (Transport.buffered c1) > 0);
  let slept = elapsed (fun () -> Transport.wait [ c1 ] ~timeout_s:0.1) in
  Alcotest.(check bool) "a full socket does not wake it" true (slept >= 0.09);
  Unix.set_nonblock p1;
  let buf = Bytes.create 65536 in
  (try
     while Unix.read p1 buf 0 65536 > 0 do
       ()
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  let woke = elapsed (fun () -> Transport.wait [ c1 ] ~timeout_s:10.) in
  Alcotest.(check bool) "room in the socket wakes it" true (woke < 1.);
  (* a listener with a connection to accept *)
  let path = fresh_sock () in
  let lfd = Transport.listen (Transport.Unix_sock path) in
  let dialed = Transport.dial (Transport.Unix_sock path) in
  let woke =
    elapsed (fun () -> Transport.wait ~listener:lfd [] ~timeout_s:10.)
  in
  Transport.close dialed;
  Unix.close lfd;
  Sys.remove path;
  Alcotest.(check bool) "a pending accept wakes it" true (woke < 1.);
  (* closed: by the transport, and behind its back (EBADF) *)
  Transport.close c2;
  let woke = elapsed (fun () -> Transport.wait [ c2 ] ~timeout_s:10.) in
  Alcotest.(check bool) "a closed connection returns at once" true (woke < 1.);
  Unix.close (Option.get (Transport.fd c1));
  let woke = elapsed (fun () -> Transport.wait [ c1 ] ~timeout_s:10.) in
  Alcotest.(check bool) "a closed fd returns at once" true (woke < 1.)

(* a nonblocking connect to a Unix listener whose backlog is full never
   starts (EAGAIN): the dial must stay Connecting and re-issue the
   connect once the listener makes room, not report Up and die on its
   first send *)
let test_dial_full_backlog () =
  let path = fresh_sock () in
  let addr = Transport.Unix_sock path in
  let lfd = Transport.listen ~backlog:1 addr in
  let clients = Array.init 6 (fun _ -> Transport.dial addr) in
  let served = ref [] in
  Fun.protect ~finally:(fun () ->
      Array.iter Transport.close clients;
      List.iter Transport.close !served;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Array.iter
    (fun c ->
      Transport.send c ~kind:Remote.Protocol.k_hello ~id:"" ~payload:"v")
    clients;
  let answered = Array.make 6 false in
  let deadline = Unix.gettimeofday () +. 5. in
  while
    Array.exists not answered && Unix.gettimeofday () < deadline
  do
    (* only now does the listener accept, echoing every HELLO *)
    (try
       while true do
         let fd, _ = Unix.accept ~cloexec:true lfd in
         served := Transport.of_fd fd :: !served
       done
     with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    List.iter
      (fun s ->
        Transport.poll s;
        match Transport.recv s with
        | Some m ->
          Transport.send s ~kind:m.Pickle.Frame.f_kind ~id:""
            ~payload:m.Pickle.Frame.f_payload
        | None -> ())
      !served;
    Array.iteri
      (fun i c ->
        Transport.poll c;
        if Transport.recv c <> None then answered.(i) <- true)
      clients;
    Unix.sleepf 0.001
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "dial %d completed its HELLO (%s)" i
           (match Transport.status c with
           | Transport.Closed reason -> "closed: " ^ reason
           | Transport.Connecting -> "connecting"
           | Transport.Up -> "up"))
        true answered.(i))
    clients

(* a chaos send delay holds its own connection, not the process: the
   delayed frame leaves on time while a second link's round trip
   completes at once *)
let test_send_delay_holds_one_link () =
  let chaos =
    Remote.Netchaos.injector
      [ { Remote.Netchaos.ce_op = Send; ce_at = 1; ce_fault = Delay 1.0 } ]
  in
  let sockets () = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let a1, b1 = sockets () and a2, b2 = sockets () in
  let slow = Transport.of_fd ~chaos a1 and slow_peer = Transport.of_fd b1 in
  let fast = Transport.of_fd a2 and fast_peer = Transport.of_fd b2 in
  let all = [ slow; slow_peer; fast; fast_peer ] in
  Fun.protect ~finally:(fun () -> List.iter Transport.close all) @@ fun () ->
  let ping c id = Transport.send c ~kind:Remote.Protocol.k_ping ~id ~payload:"" in
  (* the next frame on [c], pumping every connection meanwhile *)
  let rec next c =
    List.iter Transport.poll all;
    match Transport.recv c with
    | Some msg -> msg.Pickle.Frame.f_id
    | None ->
      Transport.wait all ~timeout_s:5.;
      next c
  in
  let t0 = Unix.gettimeofday () in
  ping slow "late";
  ping fast "request";
  Alcotest.(check string) "the request arrives" "request" (next fast_peer);
  ping fast_peer "reply";
  Alcotest.(check string) "the reply arrives" "reply" (next fast);
  let round_trip = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "the other link answers at once (%.3f s)" round_trip)
    true (round_trip < 0.5);
  Alcotest.(check string) "the delayed frame arrives" "late" (next slow_peer);
  let late = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "and not before its time (%.3f s)" late)
    true (late >= 0.95)

let suite =
  [
    Alcotest.test_case "parse addr" `Quick test_parse_addr;
    Alcotest.test_case "one wait over many connections" `Quick test_wait;
    Alcotest.test_case "dial past a full backlog" `Quick
      test_dial_full_backlog;
    Alcotest.test_case "seeded plans deterministic" `Quick
      test_seeded_plans_deterministic;
    Alcotest.test_case "chaos refuses a connect" `Quick
      test_chaos_refused_connect;
    Alcotest.test_case "remote build = serial build" `Quick
      test_remote_build_matches_serial;
    Alcotest.test_case "send-reset requeues the job" `Quick
      test_send_reset_requeues_the_job;
    Alcotest.test_case "two executors share the build" `Quick
      test_two_executors_share_the_build;
    Alcotest.test_case "all executors dead: local fallback" `Quick
      test_all_executors_dead_falls_back;
    Alcotest.test_case "no fallback: E0703" `Quick
      test_no_fallback_surfaces_e0703;
    Alcotest.test_case "executor killed mid-build" `Quick
      test_executor_killed_mid_build;
    Alcotest.test_case "chaos matrix: byte-identity" `Slow test_chaos_matrix;
    Alcotest.test_case "cache service roundtrip" `Quick
      test_cache_service_roundtrip;
    Alcotest.test_case "cache service down: degrade" `Quick
      test_cache_service_down_degrades;
    Alcotest.test_case "shared cache warms a second builder" `Quick
      test_shared_cache_warms_a_second_builder;
    Alcotest.test_case "watchdog drops only wedged clients" `Quick
      test_netsrv_watchdog;
    Alcotest.test_case "a straggler is hedged" `Quick test_straggler_is_hedged;
    Alcotest.test_case "a send delay holds one link" `Quick
      test_send_delay_holds_one_link;
  ]
