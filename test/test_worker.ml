(* Supervised out-of-process compile workers: frame integrity, the
   supervisor's crash/timeout/wedge handling, quarantine accounting,
   pool death, and the acceptance property — under chaos injection the
   Workers backend stays byte-identical to Serial for every unit it
   completes, poisons exactly the chaos units' cones, and a chaos-free
   rerun recompiles exactly failed ∪ skipped and converges clean. *)

module Driver = Irm.Driver
module Wire = Irm.Wire
module Gen = Workload.Gen
module Diag = Support.Diag
module Frame = Pickle.Frame

let sorted = List.sort String.compare
let check_files = Alcotest.(check (list string))
let failed_names stats = List.map fst stats.Driver.st_failed
let skipped_names stats = List.map fst stats.Driver.st_skipped

let metric name = Option.value ~default:0 (Obs.Metrics.find name)

(* tight timings so supervision paths run in test time; chaos is
   injected through the config, not the environment *)
let wcfg ?(jobs = 2) ?(timeout = 30.) ?(chaos = []) () =
  {
    (Remote.Pool.default_config (Spawn jobs)) with
    Remote.Pool.timeout_s = timeout;
    heartbeat_s = 0.05;
    backoff_s = 0.001;
    backoff_cap_s = 0.05;
    chaos;
  }

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let frame = Frame.encode ~kind:3 ~id:"u001.sml" ~payload:"the bytes \x00\xff" in
  let header = String.sub frame 0 Frame.header_size in
  let body = String.sub frame Frame.header_size (Frame.body_length header) in
  Alcotest.(check int)
    "frame is header + body" (String.length frame)
    (Frame.header_size + String.length body);
  let msg = Frame.decode_body body in
  Alcotest.(check int) "kind" 3 msg.Frame.f_kind;
  Alcotest.(check string) "id" "u001.sml" msg.Frame.f_id;
  Alcotest.(check string) "payload" "the bytes \x00\xff" msg.Frame.f_payload

let expect_corrupt name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Buf.Corrupt" name
  | exception Pickle.Buf.Corrupt _ -> ()

let test_frame_corruption () =
  let frame = Frame.encode ~kind:2 ~id:"u" ~payload:"payload" in
  let header = String.sub frame 0 Frame.header_size in
  let body_len = Frame.body_length header in
  let body = String.sub frame Frame.header_size body_len in
  (* flip one byte anywhere in the body: the CRC trailer must catch it *)
  for i = 0 to body_len - 1 do
    let b = Bytes.of_string body in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    expect_corrupt
      (Printf.sprintf "bit flip at %d" i)
      (fun () -> Frame.decode_body (Bytes.to_string b))
  done;
  expect_corrupt "bad magic" (fun () ->
      Frame.body_length ("XXXX" ^ String.sub header 4 4));
  expect_corrupt "truncated body" (fun () ->
      Frame.decode_body (String.sub body 0 3))

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                         *)
(* ------------------------------------------------------------------ *)

let test_wire_exn_roundtrip () =
  let d =
    Diag.make ~code:"E0302" ~unit_name:"u.sml" Diag.Elaborate
      (Support.Loc.make "u.sml"
         { Support.Loc.line = 3; col = 7; offset = 40 }
         { Support.Loc.line = 3; col = 12; offset = 45 })
      "unbound variable x"
  in
  (match Wire.decode_exn (Wire.encode_exn (Diag.Error d)) with
  | Diag.Error d' ->
    Alcotest.(check string) "same rendering" (Diag.to_string d)
      (Diag.to_string d')
  | _ -> Alcotest.fail "expected Diag.Error");
  (* dummy locations survive the trip *physically*: Diag.pp picks the
     unit-name rendering by [loc == Loc.dummy] *)
  let dummy = Diag.make ~unit_name:"u.sml" Diag.Manager Support.Loc.dummy "m" in
  (match Wire.decode_exn (Wire.encode_exn (Diag.Errors [ dummy ])) with
  | Diag.Errors [ d' ] ->
    Alcotest.(check bool) "physical dummy" true (d'.Diag.loc == Support.Loc.dummy);
    Alcotest.(check string) "same rendering" (Diag.to_string dummy)
      (Diag.to_string d')
  | _ -> Alcotest.fail "expected Diag.Errors");
  (* a non-diagnostic exception renders as its bare message, exactly as
     the in-process exception would have *)
  match Wire.decode_exn (Wire.encode_exn Stack_overflow) with
  | e ->
    Alcotest.(check string) "bare message" (Printexc.to_string Stack_overflow)
      (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Pool basics, over a toy protocol                                    *)
(* ------------------------------------------------------------------ *)

exception Toy_failure of string

let toy_proto () =
  {
    Remote.Pool.p_handler =
      (fun ~id payload ->
        if String.length payload > 0 && payload.[0] = '!' then
          failwith ("handler refused " ^ id)
        else id ^ ":" ^ String.uppercase_ascii payload);
    p_encode_exn = Printexc.to_string;
    p_decode_exn = (fun s -> Toy_failure s);
    p_fail =
      (fun ~id -> function
        | Remote.Pool.Crashed { attempts; _ } ->
          Toy_failure (Printf.sprintf "%s crashed x%d" id attempts)
        | Remote.Pool.Timed_out { timeout_s } ->
          Toy_failure (Printf.sprintf "%s timed out after %gs" id timeout_s)
        | Remote.Pool.Unreachable _ | Remote.Pool.Protocol _ ->
          Toy_failure (id ^ " failed on a dialed peer"));
  }

let drain pool =
  let results = ref [] in
  while Remote.Pool.pending pool > 0 do
    results := Remote.Pool.next pool :: !results
  done;
  List.rev !results

let test_pool_echo () =
  let pool = Remote.Pool.create (wcfg ()) (toy_proto ()) in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  let ids = List.init 10 (Printf.sprintf "job%02d") in
  List.iter (fun id -> Remote.Pool.submit pool ~id ("payload of " ^ id)) ids;
  let results = drain pool in
  Alcotest.(check int) "all answered" 10 (List.length results);
  List.iter
    (fun id ->
      match List.assoc id results with
      | Ok reply ->
        Alcotest.(check string) "echoed"
          (id ^ ":" ^ String.uppercase_ascii ("payload of " ^ id))
          reply
      | Error e -> Alcotest.failf "%s failed: %s" id (Printexc.to_string e))
    ids

let test_pool_handler_error () =
  let pool = Remote.Pool.create (wcfg ()) (toy_proto ()) in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  Remote.Pool.submit pool ~id:"good" "fine";
  Remote.Pool.submit pool ~id:"bad" "!boom";
  let results = drain pool in
  (match List.assoc "bad" results with
  | Error (Toy_failure msg) ->
    Alcotest.(check string) "handler error crossed the pipe"
      "Failure(\"handler refused bad\")" msg
  | _ -> Alcotest.fail "expected a decoded handler error");
  match List.assoc "good" results with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "good failed: %s" (Printexc.to_string e)

let test_pool_crash_quarantine () =
  let crashes0 = metric "worker.crashes" in
  let quarantined0 = metric "worker.quarantined" in
  let pool =
    Remote.Pool.create
      (wcfg ~chaos:[ ("victim", Remote.Pool.Chaos_crash) ] ())
      (toy_proto ())
  in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  Remote.Pool.submit pool ~id:"victim" "x";
  Remote.Pool.submit pool ~id:"bystander" "y";
  let results = drain pool in
  (match List.assoc "victim" results with
  | Error (Toy_failure msg) ->
    Alcotest.(check string) "quarantined after 2 attempts" "victim crashed x2"
      msg
  | _ -> Alcotest.fail "expected quarantine");
  (match List.assoc "bystander" results with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bystander failed: %s" (Printexc.to_string e));
  Alcotest.(check int) "two crashes accounted" 2
    (metric "worker.crashes" - crashes0);
  Alcotest.(check int) "one quarantine" 1
    (metric "worker.quarantined" - quarantined0)

let test_pool_exit_is_crash () =
  let pool =
    Remote.Pool.create
      (wcfg ~chaos:[ ("victim", Remote.Pool.Chaos_exit 3) ] ())
      (toy_proto ())
  in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  Remote.Pool.submit pool ~id:"victim" "x";
  match drain pool with
  | [ ("victim", Error (Toy_failure msg)) ]
    when msg = "victim crashed x2" -> ()
  | other ->
    Alcotest.failf "expected quarantine, got %d results" (List.length other)

let test_pool_timeout () =
  let timeouts0 = metric "worker.timeouts" in
  let pool =
    Remote.Pool.create
      (wcfg ~timeout:0.3 ~chaos:[ ("sleeper", Remote.Pool.Chaos_hang) ] ())
      (toy_proto ())
  in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  Remote.Pool.submit pool ~id:"sleeper" "x";
  (match drain pool with
  | [ ("sleeper", Error (Toy_failure msg)) ] ->
    Alcotest.(check string) "timed out" "sleeper timed out after 0.3s" msg
  | _ -> Alcotest.fail "expected a timeout failure");
  Alcotest.(check int) "timeout accounted once" 1
    (metric "worker.timeouts" - timeouts0)

let test_pool_wedge_heartbeat_loss () =
  (* heartbeats stop but the job deadline is far away: only heartbeat
     supervision can catch this, and it counts as a crash *)
  let pool =
    Remote.Pool.create
      (wcfg ~timeout:60. ~chaos:[ ("wedged", Remote.Pool.Chaos_wedge) ] ())
      (toy_proto ())
  in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  Remote.Pool.submit pool ~id:"wedged" "x";
  match drain pool with
  | [ ("wedged", Error (Toy_failure msg)) ] when msg = "wedged crashed x2" ->
    ()
  | _ -> Alcotest.fail "expected heartbeat-loss quarantine"

let test_pool_down () =
  let pool =
    Remote.Pool.create (wcfg ~chaos:[ ("*", Remote.Pool.Chaos_nostart) ] ())
      (toy_proto ())
  in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  Remote.Pool.submit pool ~id:"any" "x";
  match drain pool with
  | _ -> Alcotest.fail "expected Pool_down"
  | exception Remote.Pool.Pool_down _ -> ()

(* frames far larger than a socket buffer: both directions go out in
   many partial nonblocking writes and must arrive byte-exact *)
let test_pool_large_frames () =
  let size = 4 * 1024 * 1024 in
  let request = String.init size (fun i -> Char.chr (i * 7 land 255)) in
  let flip = String.map (fun c -> Char.chr (255 - Char.code c)) in
  let proto =
    { (toy_proto ()) with Remote.Pool.p_handler = (fun ~id:_ p -> flip p) }
  in
  let pool = Remote.Pool.create (wcfg ~jobs:1 ()) proto in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  Remote.Pool.submit pool ~id:"big" request;
  match drain pool with
  | [ ("big", Ok reply) ] ->
    Alcotest.(check int) "reply length" size (String.length reply);
    Alcotest.(check bool)
      "reply byte-exact" true
      (String.equal reply (flip request))
  | [ (_, Error e) ] -> Alcotest.failf "big job failed: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected one reply"

(* Sched's slot accounting through the Workers backend: one entry per
   child, none negative, no more busy time than the slots had *)
let test_workers_slot_accounting () =
  let codec =
    {
      Sched.c_proto = toy_proto ();
      c_encode_job = Fun.id;
      c_decode_result = Fun.id;
    }
  in
  let _ =
    Sched.run ~codec
      (Sched.Pool (wcfg ~jobs:2 ()))
      ~order:(List.init 6 (Printf.sprintf "n%d"))
      ~deps:(fun _ -> [])
      ~prepare:(fun n -> Sched.Run n)
      ~execute:Fun.id
      ~complete:(fun _ r -> r)
  in
  match Sched.last_slots () with
  | None -> Alcotest.fail "no slot accounting"
  | Some s ->
    Alcotest.(check int) "sl_jobs" 2 s.Sched.sl_jobs;
    Alcotest.(check int)
      "one entry per slot" 2
      (Array.length s.Sched.sl_busy_s);
    Array.iter
      (fun b -> Alcotest.(check bool) "busy >= 0" true (b >= 0.))
      s.Sched.sl_busy_s;
    Alcotest.(check bool) "busy <= jobs * wall" true
      (Array.fold_left ( +. ) 0. s.Sched.sl_busy_s
      <= float_of_int s.Sched.sl_jobs *. s.Sched.sl_wall_s)

let test_chaos_of_env () =
  Unix.putenv Remote.Pool.chaos_env_var
    "crash:u1.sml, hang:u2.sml,exit=3:u3.sml,wedge:u4.sml,garbage,nostart";
  let parsed = Remote.Pool.chaos_of_env () in
  Unix.putenv Remote.Pool.chaos_env_var "";
  Alcotest.(check bool) "crash" true
    (List.assoc "u1.sml" parsed = Remote.Pool.Chaos_crash);
  Alcotest.(check bool) "hang" true
    (List.assoc "u2.sml" parsed = Remote.Pool.Chaos_hang);
  Alcotest.(check bool) "exit" true
    (List.assoc "u3.sml" parsed = Remote.Pool.Chaos_exit 3);
  Alcotest.(check bool) "wedge" true
    (List.assoc "u4.sml" parsed = Remote.Pool.Chaos_wedge);
  Alcotest.(check bool) "nostart" true
    (List.assoc "*" parsed = Remote.Pool.Chaos_nostart);
  Alcotest.(check int) "garbage ignored" 5 (List.length parsed)

(* ------------------------------------------------------------------ *)
(* The Workers scheduler backend on real builds                        *)
(* ------------------------------------------------------------------ *)

let project ?(profile = Gen.default_profile) topology =
  let fs = Vfs.memory () in
  let p = Gen.create fs topology profile in
  (fs, Driver.create fs, Gen.sources p)

let bin_of fs f = Option.get (fs.Vfs.fs_read (f ^ ".bin"))

let break_unbound fs file =
  let src = Option.get (fs.Vfs.fs_read file) in
  let needle = "  val seed = " in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length src then None
    else if String.sub src i n = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "breaker needle missing in %s" file
  | Some i ->
    fs.Vfs.fs_write file
      (String.sub src 0 i ^ needle ^ "wk_unbound_variable + "
      ^ String.sub src (i + n) (String.length src - i - n))

(* Workers ship view bytes and decode them in the child; Serial jobs
   rehydrate the manager's shared decodes.  Both write the same bins,
   also on a rich project (functors, datatypes, signatures). *)
let test_workers_match_serial_clean () =
  List.iter
    (fun (profile, seed) ->
      let topology = Gen.Random_dag { units = 10; max_deps = 3; seed } in
      let fs_s, mgr_s, sources = project ~profile topology in
      let _ = Driver.build mgr_s ~policy:Driver.Cutoff ~sources in
      let fs_w, mgr_w, sources_w = project ~profile topology in
      let stats =
        Driver.build ~backend:(Driver.Pool (wcfg ~jobs:3 ())) mgr_w
          ~policy:Driver.Cutoff ~sources:sources_w
      in
      check_files "all recompiled" (sorted sources)
        (sorted stats.Driver.st_recompiled);
      List.iter
        (fun f ->
          Alcotest.(check string)
            (Printf.sprintf "bin bytes of %s (seed %d)" f seed)
            (bin_of fs_s f) (bin_of fs_w f))
        sources)
    [
      (Gen.default_profile, 11);
      (Gen.default_profile, 42);
      (Gen.default_profile, 77);
      (Gen.rich_profile, 9);
    ]

let test_workers_incremental_noop () =
  let _fs, mgr, sources = project (Gen.Chain 5) in
  let backend = Driver.Pool (wcfg ()) in
  let _ = Driver.build ~backend mgr ~policy:Driver.Cutoff ~sources in
  let stats = Driver.build ~backend mgr ~policy:Driver.Cutoff ~sources in
  check_files "nothing recompiled" [] stats.Driver.st_recompiled;
  Alcotest.(check int) "everything loaded" (List.length sources)
    (List.length stats.Driver.st_loaded)

(* the acceptance property: chaos + a genuinely broken unit under
   keep_going.  Serial (immune to chaos) fixes the expected partitions;
   Workers must agree everywhere chaos does not reach, quarantine the
   crash unit with E0701, time the hung unit out with E0702, skip their
   cones, and a chaos-free rerun must recompile exactly failed ∪
   skipped and converge clean, byte-identical to Serial. *)
let acceptance_for ~seed =
  let topology = Gen.Random_dag { units = 9; max_deps = 3; seed } in
  (* serial reference on an identical broken project *)
  let fs_s, mgr_s, sources = project topology in
  break_unbound fs_s "u002.sml";
  let serial =
    Driver.build ~keep_going:true mgr_s ~policy:Driver.Cutoff ~sources
  in
  (* chaos targets: one crashing, one hanging unit, disjoint from the
     broken one *)
  let crash_unit = "u004.sml" and hang_unit = "u007.sml" in
  let chaos =
    [
      (crash_unit, Remote.Pool.Chaos_crash);
      (hang_unit, Remote.Pool.Chaos_hang);
    ]
  in
  let fs_w, mgr_w, _ = project topology in
  break_unbound fs_w "u002.sml";
  let crashes0 = metric "worker.crashes" in
  let workers =
    Driver.build
      ~backend:(Driver.Pool (wcfg ~jobs:3 ~timeout:0.4 ~chaos ()))
      ~keep_going:true mgr_w ~policy:Driver.Cutoff ~sources
  in
  (* the workers run fails exactly serial's failures plus the chaos
     units (unless a chaos unit sits in a failed unit's cone and was
     never attempted) *)
  let serial_failed = sorted (failed_names serial) in
  let workers_failed = sorted (failed_names workers) in
  let serial_skipped = sorted (skipped_names serial) in
  let workers_skipped = sorted (skipped_names workers) in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "serial failure %s also fails under workers" f)
        true
        (List.mem f workers_failed))
    serial_failed;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "extra workers failure %s is a chaos unit" f)
        true
        (List.mem f [ crash_unit; hang_unit ]))
    (List.filter (fun f -> not (List.mem f serial_failed)) workers_failed);
  (* chaos units that serial completed must have failed with the right
     quarantine code, at most w_crash_limit crash attempts *)
  List.iter
    (fun (u, code) ->
      if not (List.mem u serial_failed || List.mem u serial_skipped) then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s failed or skipped under workers" u)
          true
          (List.mem u workers_failed || List.mem u workers_skipped);
        if List.mem u workers_failed then begin
          let ds = List.assoc u workers.Driver.st_failed in
          Alcotest.(check string)
            (Printf.sprintf "%s diagnostic code" u)
            code (List.hd ds).Diag.code;
          Alcotest.(check string)
            (Printf.sprintf "%s unit stamped" u)
            u
            (Option.value ~default:"?" (List.hd ds).Diag.unit_name)
        end
      end)
    [ (crash_unit, "E0701"); (hang_unit, "E0702") ];
  Alcotest.(check bool) "crash attempts bounded by limit" true
    (metric "worker.crashes" - crashes0 <= 2);
  (* every unit the workers run completed is byte-identical to serial *)
  let completed stats srcs =
    List.filter
      (fun f ->
        not
          (List.mem f (failed_names stats) || List.mem f (skipped_names stats)))
      srcs
  in
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "completed bin %s matches serial" f)
        (bin_of fs_s f) (bin_of fs_w f))
    (completed workers sources);
  (* chaos-free rerun after fixing the broken source: recompiles exactly
     failed ∪ skipped and converges clean, byte-identical to a clean
     serial project *)
  let fs_clean, mgr_clean, _ = project topology in
  let _ = Driver.build mgr_clean ~policy:Driver.Cutoff ~sources in
  let fixed = Option.get (fs_clean.Vfs.fs_read "u002.sml") in
  fs_w.Vfs.fs_write "u002.sml" fixed;
  let rerun =
    Driver.build
      ~backend:(Driver.Pool (wcfg ~jobs:3 ()))
      ~keep_going:true mgr_w ~policy:Driver.Cutoff ~sources
  in
  check_files "rerun converges clean" [] (failed_names rerun);
  check_files "rerun skips nothing" [] (skipped_names rerun);
  check_files "rerun recompiles exactly failed ∪ skipped"
    (sorted (workers_failed @ workers_skipped))
    (sorted rerun.Driver.st_recompiled);
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "converged bin %s" f)
        (bin_of fs_clean f) (bin_of fs_w f))
    sources

let test_acceptance_chaos_dags () = List.iter (fun seed -> acceptance_for ~seed) [ 5; 23 ]

(* ------------------------------------------------------------------ *)
(* Cross-process trace aggregation                                     *)
(* ------------------------------------------------------------------ *)

module Trace = Obs.Trace

(* the merged-trace property: a Workers build under chaos still yields
   ONE well-formed Chrome trace — child compile spans land in parent
   time (offset-corrected, so they nest under the build span), every
   track's spans are properly bracketed, and a crashed worker's dying
   job appears as a salvaged span marked truncated *)
let check_merged_trace ~chaos ~expect_truncated seed =
  let topology = Gen.Random_dag { units = 8; max_deps = 3; seed } in
  let _fs, mgr, sources = project topology in
  Trace.enable ();
  let finish () = Trace.disable () in
  Fun.protect ~finally:finish @@ fun () ->
  let _ =
    Driver.build
      ~backend:(Driver.Pool (wcfg ~jobs:2 ~chaos ()))
      ~keep_going:true mgr ~policy:Driver.Cutoff ~sources
  in
  let evs = Trace.events () in
  let parent_pid = 0 in
  let child_pids =
    List.filter (fun e -> e.Trace.ev_pid <> parent_pid) evs
    |> List.map (fun e -> e.Trace.ev_pid)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "child events present (seed %d)" seed)
    true
    (List.length child_pids >= 1);
  (* child compile spans were shifted into parent time: they start
     after the parent's build span did *)
  let build_span =
    List.find (fun e -> e.Trace.ev_name = "build") evs
  in
  List.iter
    (fun e ->
      if e.Trace.ev_pid <> parent_pid then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s (pid %d) starts inside the build (seed %d)"
             e.Trace.ev_name e.Trace.ev_pid seed)
          true
          (e.Trace.ev_start_us >= build_span.Trace.ev_start_us -. 1000.)
      end)
    evs;
  (* per (pid, tid): start times non-decreasing (events () sorts) and
     spans properly nested — the same invariant scripts/check_trace.py
     enforces on the serialized file *)
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = (e.Trace.ev_pid, e.Trace.ev_tid) in
      Hashtbl.replace tracks k (e :: Option.value ~default:[] (Hashtbl.find_opt tracks k)))
    evs;
  Hashtbl.iter
    (fun (pid, tid) track ->
      let track = List.rev track in
      let last = ref neg_infinity in
      let stack = ref [] in
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "pid %d tid %d monotone ts (seed %d)" pid tid seed)
            true
            (e.Trace.ev_start_us >= !last);
          last := e.Trace.ev_start_us;
          let start = e.Trace.ev_start_us in
          let stop = start +. e.Trace.ev_dur_us in
          (* pop closed intervals; 10ns slop for offset-corrected floats *)
          while !stack <> [] && start >= List.hd !stack -. 0.01 do
            stack := List.tl !stack
          done;
          (match !stack with
          | enclosing :: _ ->
            Alcotest.(check bool)
              (Printf.sprintf "pid %d tid %d %s nests (seed %d)" pid tid
                 e.Trace.ev_name seed)
              true
              (stop <= enclosing +. 0.01)
          | [] -> ());
          stack := stop :: !stack)
        track)
    tracks;
  let truncated =
    List.filter
      (fun e -> List.assoc_opt "truncated" e.Trace.ev_args = Some "true")
      evs
  in
  if expect_truncated then
    Alcotest.(check bool)
      (Printf.sprintf "crashed worker left a truncated span (seed %d)" seed)
      true
      (List.length truncated >= 1)
  else
    Alcotest.(check int)
      (Printf.sprintf "no truncated spans on a clean build (seed %d)" seed)
      0 (List.length truncated)

let test_trace_merge_clean () =
  List.iter (check_merged_trace ~chaos:[] ~expect_truncated:false) [ 3; 19 ]

let test_trace_merge_chaos () =
  List.iter
    (check_merged_trace
       ~chaos:[ ("u003.sml", Remote.Pool.Chaos_crash) ]
       ~expect_truncated:true)
    [ 3; 19 ]

let test_workers_pool_down_build () =
  let _fs, mgr, sources = project (Gen.Chain 3) in
  match
    Driver.build
      ~backend:
        (Driver.Pool
           (wcfg ~chaos:[ ("*", Remote.Pool.Chaos_nostart) ] ()))
      mgr ~policy:Driver.Cutoff ~sources
  with
  | _ -> Alcotest.fail "expected Pool_down"
  | exception Remote.Pool.Pool_down _ -> ()

(* an executor hosting a pool waits on its children's links beside its
   clients: a compile result wakes the reactor turn that relays it, so
   steps that may each sleep 10 s finish the job in a few wake-ups *)
let test_exec_relays_pool_result () =
  let module T = Remote.Transport in
  let module P = Remote.Protocol in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smlsep-w%d-relay.sock" (Unix.getpid ()))
  in
  let exec =
    Remote.Exec.create
      ~mode:(Remote.Exec.Pool (wcfg ~jobs:2 ()))
      (T.Unix_sock path) (Wire.proto ())
  in
  Fun.protect ~finally:(fun () -> Remote.Exec.stop exec) @@ fun () ->
  let c = T.dial (Remote.Exec.addr exec) in
  Fun.protect ~finally:(fun () -> T.close c) @@ fun () ->
  T.greet c ~version:P.version_exec
    ~tick:(fun () -> Remote.Exec.step exec)
    ~deadline:(Unix.gettimeofday () +. 5.);
  let job =
    {
      Wire.j_name = "a.sml";
      j_source = "structure A = struct val x = 6 * 7 end";
      j_closure = [];
      j_imports = [];
      j_collect = false;
      j_werror = false;
      j_limit = None;
      j_build = 0;
    }
  in
  T.send c ~kind:P.k_job ~id:"a.sml" ~payload:(Wire.encode_job job);
  let t0 = Unix.gettimeofday () in
  let rec relay steps =
    Remote.Exec.step ~timeout_s:10. exec;
    T.poll c;
    match T.recv c with
    | Some msg -> (msg, steps)
    | None ->
      if Unix.gettimeofday () -. t0 > 5. then
        Alcotest.failf "no result after %d steps and %.1f s" steps
          (Unix.gettimeofday () -. t0);
      relay (steps + 1)
  in
  let msg, steps = relay 1 in
  Alcotest.(check int) "a result frame" P.k_result msg.Frame.f_kind;
  Alcotest.(check bool) "the bytes of an in-process compile" true
    (String.equal (Wire.decode_result msg.Frame.f_payload).Wire.r_bytes
       (Wire.execute job).Wire.r_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "relayed within a few steps (%d)" steps)
    true (steps <= 10)

(* an executor's own pool quarantines a crashing compile: the E0701 it
   mints crosses the wire as a k_error, and the dialing pool takes it as
   the compile's answer — no requeue on another executor, no local
   retry *)
let test_exec_crash_relayed_as_e0701 () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smlsep-w%d-crash.sock" (Unix.getpid ()))
  in
  let exec =
    Remote.Exec.create
      ~mode:
        (Remote.Exec.Pool
           (wcfg ~jobs:2 ~chaos:[ ("a.sml", Remote.Pool.Chaos_crash) ] ()))
      (Remote.Transport.Unix_sock path)
      (Wire.proto ())
  in
  Fun.protect ~finally:(fun () -> Remote.Exec.stop exec) @@ fun () ->
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "a.sml" "structure A = struct val x = 6 * 7 end";
  fs.Vfs.fs_write "b.sml" "structure B = struct val y = A.x + 1 end";
  fs.Vfs.fs_write "c.sml" "structure C = struct val z = 1 end";
  let sources = [ "a.sml"; "b.sml"; "c.sml" ] in
  let cfg =
    {
      (Remote.Pool.default_config (Dial [ Remote.Exec.addr exec ])) with
      Remote.Pool.tick =
        Some
          (fun () ->
            if Remote.Exec.running exec then Remote.Exec.step exec);
      log = ignore;
    }
  in
  let requeued0 = metric "fleet.requeued" in
  let fallback0 = metric "fleet.local_fallback_jobs" in
  let dispatched0 = metric "fleet.dispatched" in
  let stats =
    Driver.build ~backend:(Driver.Pool cfg) ~keep_going:true
      (Driver.create fs) ~policy:Driver.Cutoff ~sources
  in
  (match List.assoc_opt "a.sml" stats.Driver.st_failed with
  | Some (d :: _) ->
    Alcotest.(check string) "a.sml quarantined by the executor's pool"
      "E0701" d.Diag.code
  | Some [] | None -> Alcotest.fail "a.sml did not fail");
  check_files "its cone skipped" [ "b.sml" ] (skipped_names stats);
  check_files "the bystander compiled" [ "c.sml" ] stats.Driver.st_recompiled;
  Alcotest.(check int) "not requeued" 0 (metric "fleet.requeued" - requeued0);
  Alcotest.(check int) "each job dispatched once" 2
    (metric "fleet.dispatched" - dispatched0);
  Alcotest.(check int) "never compiled locally" 0
    (metric "fleet.local_fallback_jobs" - fallback0)

(* network faults reach a spawned peer's socketpair link: a reset or a
   torn job frame is that child's crash, and the job retries on a fresh
   child, so the build still equals the serial one *)
let test_netchaos_on_child_links () =
  let topology = Gen.Random_dag { units = 6; max_deps = 3; seed = 13 } in
  let fs_s, mgr_s, sources = project topology in
  let _ = Driver.build mgr_s ~policy:Driver.Cutoff ~sources in
  List.iter
    (fun fault ->
      let name = Remote.Netchaos.fault_name fault in
      (* the pool's sends on a child link are its jobs: the second one
         meets the fault, on the one child, so a fresh child retries it *)
      let net_chaos =
        [
          {
            Remote.Netchaos.ce_op = Remote.Netchaos.Send;
            ce_at = 2;
            ce_fault = fault;
          };
        ]
      in
      let fs_w, mgr_w, _ = project topology in
      let crashes0 = metric "worker.crashes" in
      let restarts0 = metric "worker.restarts" in
      let stats =
        Driver.build
          ~backend:(Driver.Pool { (wcfg ~jobs:1 ()) with Remote.Pool.net_chaos })
          mgr_w ~policy:Driver.Cutoff ~sources
      in
      Alcotest.(check int) (name ^ ": one child crashed") 1
        (metric "worker.crashes" - crashes0);
      Alcotest.(check bool) (name ^ ": a fresh child took over") true
        (metric "worker.restarts" - restarts0 >= 1);
      check_files (name ^ ": every unit compiled") (sorted sources)
        (sorted stats.Driver.st_recompiled);
      List.iter
        (fun f ->
          Alcotest.(check string)
            (Printf.sprintf "%s: bin of %s" name f)
            (bin_of fs_s f) (bin_of fs_w f))
        sources)
    [ Remote.Netchaos.Reset; Remote.Netchaos.Truncate_frame ]

let suite =
  [
    Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame corruption detected" `Quick test_frame_corruption;
    Alcotest.test_case "wire exception round trip" `Quick
      test_wire_exn_roundtrip;
    Alcotest.test_case "pool echoes jobs" `Quick test_pool_echo;
    Alcotest.test_case "handler errors cross the pipe" `Quick
      test_pool_handler_error;
    Alcotest.test_case "crash quarantine after N attempts" `Quick
      test_pool_crash_quarantine;
    Alcotest.test_case "nonzero exit counts as crash" `Quick
      test_pool_exit_is_crash;
    Alcotest.test_case "hung job times out" `Quick test_pool_timeout;
    Alcotest.test_case "wedged worker loses heartbeat" `Quick
      test_pool_wedge_heartbeat_loss;
    Alcotest.test_case "pool death raises Pool_down" `Quick test_pool_down;
    Alcotest.test_case "chaos env parsing" `Quick test_chaos_of_env;
    Alcotest.test_case "4 MiB frames both ways" `Quick test_pool_large_frames;
    Alcotest.test_case "executor relays a pool result at once" `Quick
      test_exec_relays_pool_result;
    Alcotest.test_case "slot accounting (Workers 2)" `Quick
      test_workers_slot_accounting;
    Alcotest.test_case "workers ≡ serial on clean DAGs" `Quick
      test_workers_match_serial_clean;
    Alcotest.test_case "workers incremental no-op" `Quick
      test_workers_incremental_noop;
    Alcotest.test_case "acceptance: chaos DAGs, partitions, convergence"
      `Quick test_acceptance_chaos_dags;
    Alcotest.test_case "merged trace well-formed (clean)" `Quick
      test_trace_merge_clean;
    Alcotest.test_case "merged trace well-formed (chaos, truncated spans)"
      `Quick test_trace_merge_chaos;
    Alcotest.test_case "pool death aborts the build" `Quick
      test_workers_pool_down_build;
    Alcotest.test_case "executor crash relayed as E0701" `Quick
      test_exec_crash_relayed_as_e0701;
    Alcotest.test_case "network faults on a child link are crashes" `Quick
      test_netchaos_on_child_links;
  ]
