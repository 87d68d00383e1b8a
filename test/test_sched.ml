(* The wavefront scheduler: dispatch mechanics (ordering, failure
   determinism) on toy graphs, and the headline property — a parallel
   build is indistinguishable from a serial one: same bin bytes, same
   export pids, same recompiled/loaded/cache/cutoff partitions, under
   every policy. *)

module Gen = Workload.Gen
module Driver = Irm.Driver
module Pid = Digestkit.Pid

(* ---- mechanics on a toy diamond: a <- {b, c} <- d ---- *)

let toy_order = [ "a"; "b"; "c"; "d" ]

let toy_deps = function
  | "d" -> [ "b"; "c" ]
  | "b" | "c" -> [ "a" ]
  | _ -> []

let backends = [ Sched.Serial; Sched.Parallel 3 ]

let test_outcomes_in_caller_order () =
  List.iter
    (fun backend ->
      let outcomes =
        Sched.run backend ~order:toy_order ~deps:toy_deps
          ~prepare:(fun node ->
            if String.equal node "c" then Sched.Done "cached-c"
            else Sched.Run node)
          ~execute:(fun node -> "ran-" ^ node)
          ~complete:(fun _ result -> result)
      in
      Alcotest.(check (list string))
        (Sched.backend_name backend ^ ": caller order")
        toy_order (List.map fst outcomes);
      List.iter
        (fun (node, outcome) ->
          match outcome with
          | Sched.Completed result ->
            let expected =
              if String.equal node "c" then "cached-c" else "ran-" ^ node
            in
            Alcotest.(check string) node expected result
          | Sched.Failed _ | Sched.Skipped _ ->
            Alcotest.fail (node ^ " should have completed"))
        outcomes)
    backends

(* slot accounting with more nodes than slots: one entry per slot, none
   negative, no more busy time than the slots had wall time, and a
   serial run that executed jobs was busy *)
let test_slot_accounting () =
  List.iter
    (fun (backend, slots) ->
      let name = Sched.backend_name backend in
      let _ =
        Sched.run backend
          ~order:(List.init 8 (Printf.sprintf "n%d"))
          ~deps:(fun _ -> [])
          ~prepare:(fun n -> Sched.Run n)
          ~execute:(fun n ->
            Unix.sleepf 0.002;
            n)
          ~complete:(fun _ r -> r)
      in
      match Sched.last_slots () with
      | None -> Alcotest.fail (name ^ ": no slot accounting")
      | Some s ->
        Alcotest.(check int) (name ^ ": sl_jobs") slots s.Sched.sl_jobs;
        Alcotest.(check int)
          (name ^ ": one entry per slot")
          slots
          (Array.length s.Sched.sl_busy_s);
        Array.iter
          (fun b -> Alcotest.(check bool) (name ^ ": busy >= 0") true (b >= 0.))
          s.Sched.sl_busy_s;
        let busy = Array.fold_left ( +. ) 0. s.Sched.sl_busy_s in
        Alcotest.(check bool)
          (name ^ ": busy <= jobs * wall")
          true
          (busy <= float_of_int s.Sched.sl_jobs *. s.Sched.sl_wall_s);
        if slots = 1 then
          Alcotest.(check bool) (name ^ ": busy > 0") true (busy > 0.))
    [ (Sched.Serial, 1); (Sched.Parallel 2, 2) ]

let test_earliest_failure_raised () =
  (* b and c both fail; the surfaced error must be b's (the earliest
     failed node in the given order), whatever completed first *)
  List.iter
    (fun backend ->
      match
        Sched.run backend ~order:toy_order ~deps:toy_deps
          ~prepare:(fun node -> Sched.Run node)
          ~execute:(fun node ->
            match node with "b" | "c" -> failwith node | _ -> node)
          ~complete:(fun _ result -> result)
      with
      | _ -> Alcotest.fail "expected the build to fail"
      | exception Failure culprit ->
        Alcotest.(check string)
          (Sched.backend_name backend ^ ": earliest failure")
          "b" culprit)
    backends

exception Abort_now of string

let test_fatal_overrides_keep_going () =
  (* under keep_going a failure is contained to its cone — but an exn
     the caller declares fatal (the CLI's SIGINT) must abort the whole
     build immediately, on every backend *)
  List.iter
    (fun backend ->
      (match
         Sched.run ~keep_going:true
           ~fatal:(function Abort_now _ -> true | _ -> false)
           backend ~order:toy_order ~deps:toy_deps
           ~prepare:(fun node -> Sched.Run node)
           ~execute:(fun node ->
             if String.equal node "b" then raise (Abort_now node) else node)
           ~complete:(fun _ result -> result)
       with
      | _ -> Alcotest.fail "fatal exception must escape keep_going"
      | exception Abort_now culprit ->
        Alcotest.(check string)
          (Sched.backend_name backend ^ ": fatal re-raised")
          "b" culprit);
      (* the same failure without the fatal predicate stays contained *)
      let outcomes =
        Sched.run ~keep_going:true backend ~order:toy_order ~deps:toy_deps
          ~prepare:(fun node -> Sched.Run node)
          ~execute:(fun node ->
            if String.equal node "b" then raise (Abort_now node) else node)
          ~complete:(fun _ result -> result)
      in
      List.iter
        (fun (node, outcome) ->
          match (node, outcome) with
          | "b", Sched.Failed (Abort_now _) | "d", Sched.Skipped _ -> ()
          | ("a" | "c"), Sched.Completed _ -> ()
          | _ -> Alcotest.fail (node ^ ": unexpected outcome"))
        outcomes)
    backends

let test_complete_respects_deps () =
  (* on a 40-node dag under heavy parallelism, every [complete] must
     still see all its dependencies completed (they run on the calling
     domain, so no locking is needed to observe this) *)
  let n = 40 in
  let name i = Printf.sprintf "n%02d" i in
  let deps_of node =
    let i = int_of_string (String.sub node 1 2) in
    if i = 0 then []
    else
      List.sort_uniq compare [ ((i * 7) + 1) mod i; ((i * 13) + 5) mod i ]
      |> List.map name
  in
  let order = List.init n name in
  let completed = Hashtbl.create n in
  let outcomes =
    Sched.run (Sched.Parallel 8) ~order ~deps:deps_of
      ~prepare:(fun node -> Sched.Run node)
      ~execute:(fun node -> node)
      ~complete:(fun node result ->
        List.iter
          (fun dep ->
            if not (Hashtbl.mem completed dep) then
              Alcotest.fail
                (Printf.sprintf "%s completed before its dependency %s" node
                   dep))
          (deps_of node);
        Hashtbl.replace completed node ();
        result)
  in
  Alcotest.(check int) "all nodes completed" n (List.length outcomes)

(* ---- priority-aware dispatch ---- *)

let test_priority_dispatch_order () =
  (* Serial executes inline, so the execute log IS the dispatch order.
     No map / a constant map must reproduce the exact caller order (the
     priority queue may never perturb the wavefront default); a skewed
     map dispatches highest-first with caller-order ties. *)
  let run ?priority ~order ~deps () =
    let log = ref [] in
    ignore
      (Sched.run ?priority Sched.Serial ~order ~deps
         ~prepare:(fun node -> Sched.Run node)
         ~execute:(fun node ->
           log := node :: !log;
           node)
         ~complete:(fun _ result -> result));
    List.rev !log
  in
  let order = [ "a"; "b"; "c"; "d" ] and deps _ = [] in
  Alcotest.(check (list string))
    "default: caller order" order
    (run ~order ~deps ());
  Alcotest.(check (list string))
    "equal priorities: caller order" order
    (run ~priority:(fun _ -> 7.) ~order ~deps ());
  let skew = function "c" -> 3. | "b" -> 2. | _ -> 0. in
  Alcotest.(check (list string))
    "highest first, ties in caller order"
    [ "c"; "b"; "a"; "d" ]
    (run ~priority:skew ~order ~deps ());
  (* priorities steer only among *ready* nodes: favouring the diamond's
     sink cannot dispatch it before its dependencies *)
  let favour_sink = function "d" -> 10. | "c" -> 1. | _ -> 0. in
  Alcotest.(check (list string))
    "priority cannot jump the dependency gates"
    [ "a"; "c"; "b"; "d" ]
    (run ~priority:favour_sink ~order:toy_order ~deps:toy_deps ())

(* ---- priorities never change outcomes ---- *)

(* A random DAG at the Sched level: a seeded subset of nodes fail and a
   seeded priority map skews dispatch.  Under keep_going the outcome
   list — payloads, failure messages, skip culprits — must be identical
   to the plain serial wavefront on every backend and job count. *)

let sched_case ~nodes ~seed =
  let rng = Random.State.make [| seed |] in
  let name i = Printf.sprintf "n%02d" i in
  let order = List.init nodes name in
  let deps_tbl = Hashtbl.create nodes in
  let fails_tbl = Hashtbl.create nodes in
  let prio_tbl = Hashtbl.create nodes in
  List.iteri
    (fun i node ->
      let deps =
        if i = 0 then []
        else
          List.init (Random.State.int rng 3) (fun _ ->
              name (Random.State.int rng i))
          |> List.sort_uniq compare
      in
      Hashtbl.replace deps_tbl node deps;
      if Random.State.int rng 4 = 0 then Hashtbl.replace fails_tbl node ();
      Hashtbl.replace prio_tbl node (float_of_int (Random.State.int rng 5)))
    order;
  ( order,
    (fun node -> Hashtbl.find deps_tbl node),
    (fun node -> Hashtbl.mem fails_tbl node),
    fun node -> Hashtbl.find prio_tbl node )

let outcome_repr outcomes =
  List.map
    (fun (node, outcome) ->
      ( node,
        match outcome with
        | Sched.Completed result -> "completed:" ^ result
        | Sched.Failed (Failure msg) -> "failed:" ^ msg
        | Sched.Failed exn -> "failed:" ^ Printexc.to_string exn
        | Sched.Skipped culprit -> "skipped:" ^ culprit ))
    outcomes

let run_sched_case ?priority backend (order, deps, fails, _) =
  let body node =
    if fails node then failwith ("boom-" ^ node) else "ok-" ^ node
  in
  Sched.run ?priority ~keep_going:true backend ~order ~deps
    ~prepare:(fun node -> Sched.Run node)
    ~execute:body
    ~complete:(fun _ result -> result)
  |> outcome_repr

let prop_priorities_preserve_outcomes =
  QCheck.Test.make ~count:8 ~name:"priorities never change outcomes"
    QCheck.(pair (int_range 0 1000) (int_range 8 24))
    (fun (seed, nodes) ->
      let ((_, _, _, priority) as case) = sched_case ~nodes ~seed in
      let reference = run_sched_case Sched.Serial case in
      List.iter
        (fun backend ->
          if run_sched_case ~priority backend case <> reference then
            QCheck.Test.fail_reportf
              "seed %d, %d nodes, %s: outcomes diverge from the serial \
               wavefront"
              seed nodes
              (Sched.backend_name backend))
        [ Sched.Serial; Sched.Parallel 1; Sched.Parallel 2; Sched.Parallel 4 ];
      true)

(* ---- parallel ≡ serial on generated projects ---- *)

let policies = [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ]

(* Cold build, implementation edit, interface edit — rebuilding after
   each — then collect everything observable: the per-build partitions,
   every unit's bin bytes, every unit's export pid. *)
let build_sequence ?(schedule = Driver.Wavefront) backend policy ~seed ~units =
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units; max_deps = 3; seed })
      Gen.default_profile
  in
  let mgr = Driver.create fs in
  let sources = Gen.sources project in
  let partitions stats =
    ( stats.Driver.st_recompiled,
      stats.Driver.st_loaded,
      stats.Driver.st_cache_hits,
      stats.Driver.st_cutoff_hits )
  in
  let s0 = Driver.build ~backend ~schedule mgr ~policy ~sources in
  Gen.edit project (Gen.middle_file project) Gen.Impl_change;
  let s1 = Driver.build ~backend ~schedule mgr ~policy ~sources in
  Gen.edit project (Gen.base_file project) Gen.Iface_change;
  let s2 = Driver.build ~backend ~schedule mgr ~policy ~sources in
  let bins =
    List.map (fun f -> Option.get (fs.Vfs.fs_read (f ^ ".bin"))) sources
  in
  let exports =
    List.map
      (fun f -> Pid.to_hex (Driver.unit_of mgr f).Pickle.Binfile.uf_static_pid)
      sources
  in
  (List.map partitions [ s0; s1; s2 ], bins, exports)

let check_parallel_equals_serial policy ~seed ~jobs ~units =
  let parts_s, bins_s, exports_s =
    build_sequence Driver.Serial policy ~seed ~units
  in
  let parts_p, bins_p, exports_p =
    build_sequence (Driver.Parallel jobs) policy ~seed ~units
  in
  if parts_s <> parts_p then
    Alcotest.fail
      (Printf.sprintf "%s/seed %d: build partitions differ"
         (Driver.policy_name policy) seed);
  Alcotest.(check (list string))
    (Printf.sprintf "%s/seed %d: export pids" (Driver.policy_name policy) seed)
    exports_s exports_p;
  List.iteri
    (fun i b_s ->
      if not (String.equal b_s (List.nth bins_p i)) then
        Alcotest.fail
          (Printf.sprintf "%s/seed %d: bin bytes of unit %d differ"
             (Driver.policy_name policy) seed i))
    bins_s

let test_parallel_equals_serial policy () =
  check_parallel_equals_serial policy ~seed:23 ~jobs:4 ~units:12

let test_critical_path_equals_wavefront () =
  (* the critical-path schedule's cold-estimate priorities must leave
     everything observable byte-identical to the wavefront, serial and
     parallel, across a cold build and both edit kinds *)
  let reference =
    build_sequence ~schedule:Driver.Wavefront Driver.Serial Driver.Cutoff
      ~seed:41 ~units:12
  in
  List.iter
    (fun backend ->
      let got =
        build_sequence ~schedule:Driver.Critical_path backend Driver.Cutoff
          ~seed:41 ~units:12
      in
      if got <> reference then
        Alcotest.fail
          (Printf.sprintf "critical-path on %s diverges from the wavefront"
             (match backend with
             | Driver.Serial -> "serial"
             | Driver.Parallel n -> Printf.sprintf "parallel-%d" n
             | Driver.Pool _ -> "pool")))
    [ Driver.Serial; Driver.Parallel 4 ]

(* the critical-path schedule reorders dispatch and nothing else: a
   cold serial build rehydrates exactly as many bins under it as under
   the wavefront *)
let test_critical_path_rehydrations () =
  let cold_build schedule =
    let fs = Vfs.memory () in
    let project =
      Gen.create fs
        (Gen.Random_dag { units = 12; max_deps = 3; seed = 41 })
        Gen.default_profile
    in
    let rehydrations () =
      Option.value ~default:0 (Obs.Metrics.find "pickle.rehydrations")
    in
    let before = rehydrations () in
    let stats =
      Driver.build ~schedule (Driver.create fs) ~policy:Driver.Cutoff
        ~sources:(Gen.sources project)
    in
    (List.length stats.Driver.st_recompiled, rehydrations () - before)
  in
  let recompiled_w, wavefront = cold_build Driver.Wavefront in
  let recompiled_c, critical = cold_build Driver.Critical_path in
  Alcotest.(check (pair int int)) "every unit compiled" (12, 12)
    (recompiled_w, recompiled_c);
  Alcotest.(check int) "critical-path rehydrations = wavefront" wavefront
    critical

let prop_parallel_equals_serial =
  QCheck.Test.make ~count:6 ~name:"parallel build = serial build"
    QCheck.(
      triple (int_range 0 1000) (int_range 2 6)
        (oneofl ~print:Driver.policy_name policies))
    (fun (seed, jobs, policy) ->
      check_parallel_equals_serial policy ~seed ~jobs ~units:10;
      true)

let suite =
  [
    Alcotest.test_case "slot accounting" `Quick test_slot_accounting;
    Alcotest.test_case "outcomes in caller order" `Quick
      test_outcomes_in_caller_order;
    Alcotest.test_case "earliest failure raised" `Quick
      test_earliest_failure_raised;
    Alcotest.test_case "fatal overrides keep_going" `Quick
      test_fatal_overrides_keep_going;
    Alcotest.test_case "complete respects dependencies" `Quick
      test_complete_respects_deps;
    Alcotest.test_case "priority dispatch order" `Quick
      test_priority_dispatch_order;
    QCheck_alcotest.to_alcotest prop_priorities_preserve_outcomes;
    Alcotest.test_case "critical-path = wavefront" `Quick
      test_critical_path_equals_wavefront;
    Alcotest.test_case "critical-path rehydrations = wavefront" `Quick
      test_critical_path_rehydrations;
    Alcotest.test_case "parallel = serial (timestamp)" `Quick
      (test_parallel_equals_serial Driver.Timestamp);
    Alcotest.test_case "parallel = serial (cutoff)" `Quick
      (test_parallel_equals_serial Driver.Cutoff);
    Alcotest.test_case "parallel = serial (selective)" `Quick
      (test_parallel_equals_serial Driver.Selective);
    QCheck_alcotest.to_alcotest prop_parallel_equals_serial;
  ]
