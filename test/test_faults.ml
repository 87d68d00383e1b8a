(* Fault injection and crash recovery.

   Mechanics of the deterministic Vfs.faulty wrapper (torn writes,
   transient failures, kill semantics, op-log determinism), the atomic
   commit protocol, retry-with-backoff in the driver — and the headline
   harness: over random DAGs × policies × backends × fault plans, kill
   a build at every injected crash point, recover, rebuild, and assert
   the final bins, export pids and build partitions are byte-identical
   to a fault-free serial build.  A crashed build must be
   indistinguishable from a cold cache. *)

module Gen = Workload.Gen
module Driver = Irm.Driver
module Pid = Digestkit.Pid

let policies = [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ]
let backends = [ Driver.Serial; Driver.Parallel 3 ]

(* ------------------------------------------------------------------ *)
(* Vfs.faulty mechanics                                                *)
(* ------------------------------------------------------------------ *)

let test_torn_write_is_silent () =
  let fs = Vfs.memory () in
  let ffs, inj = Vfs.faulty ~plan:[ Vfs.Write_torn (2, 3) ] fs in
  ffs.Vfs.fs_write "a" "full content";
  ffs.Vfs.fs_write "b" "full content";
  Alcotest.(check (option string)) "first write intact" (Some "full content")
    (fs.Vfs.fs_read "a");
  Alcotest.(check (option string)) "second write torn after 3 bytes"
    (Some "ful") (fs.Vfs.fs_read "b");
  Alcotest.(check int) "one fault fired" 1 (Vfs.faults_fired inj);
  let faulted =
    List.filter (fun op -> op.Vfs.op_fault <> None) (Vfs.oplog inj)
  in
  Alcotest.(check int) "op-log records the fault" 1 (List.length faulted)

let test_write_fail_is_transient () =
  let fs = Vfs.memory () in
  let ffs, inj = Vfs.faulty ~plan:[ Vfs.Write_fail 1 ] fs in
  (match ffs.Vfs.fs_write "a" "x" with
  | () -> Alcotest.fail "first write should fail"
  | exception Vfs.Fault { fault_transient; _ } ->
    Alcotest.(check bool) "fault is transient" true fault_transient);
  Alcotest.(check (option string)) "nothing written" None (fs.Vfs.fs_read "a");
  (* the retry — a fresh write op — succeeds *)
  ffs.Vfs.fs_write "a" "x";
  Alcotest.(check (option string)) "retry lands" (Some "x")
    (fs.Vfs.fs_read "a");
  Alcotest.(check bool) "not a crash" false (Vfs.crashed inj)

let test_crash_kills_the_process () =
  let fs = Vfs.memory () in
  let ffs, inj = Vfs.faulty ~plan:[ Vfs.Write_crash (2, 4) ] fs in
  ffs.Vfs.fs_write "a" "first";
  (match ffs.Vfs.fs_write "b" "second write" with
  | () -> Alcotest.fail "second write should crash"
  | exception Vfs.Crash _ -> ());
  Alcotest.(check bool) "injector is dead" true (Vfs.crashed inj);
  (* a prefix of the dying write reached the disk *)
  Alcotest.(check (option string)) "torn prefix on disk" (Some "seco")
    (fs.Vfs.fs_read "b");
  (* the dead process can do nothing more *)
  (match ffs.Vfs.fs_read "a" with
  | _ -> Alcotest.fail "reads after death must crash"
  | exception Vfs.Crash _ -> ());
  (match ffs.Vfs.fs_write "c" "z" with
  | () -> Alcotest.fail "writes after death must crash"
  | exception Vfs.Crash _ -> ());
  (* ...but the backing store survives for the next process *)
  Alcotest.(check (option string)) "backing store intact" (Some "first")
    (fs.Vfs.fs_read "a")

let test_read_corruption () =
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "f" "pristine bytes";
  let ffs, _ = Vfs.faulty ~plan:[ Vfs.Read_corrupt 1 ] fs in
  let corrupted = Option.get (ffs.Vfs.fs_read "f") in
  Alcotest.(check bool) "read sees corrupted bytes" false
    (String.equal corrupted "pristine bytes");
  Alcotest.(check int) "same length" (String.length "pristine bytes")
    (String.length corrupted);
  Alcotest.(check (option string)) "backing store untouched"
    (Some "pristine bytes") (fs.Vfs.fs_read "f");
  Alcotest.(check (option string)) "next read is clean"
    (Some "pristine bytes") (ffs.Vfs.fs_read "f")

let test_oplog_deterministic () =
  let run () =
    let fs = Vfs.memory () in
    let ffs, inj = Vfs.faulty ~plan:[ Vfs.Write_torn (2, 1); Vfs.Remove_fail 1 ] fs in
    ffs.Vfs.fs_write "a" "1";
    ffs.Vfs.fs_write "b" "2";
    ignore (ffs.Vfs.fs_read "a");
    (try ffs.Vfs.fs_remove "a" with Vfs.Fault _ -> ());
    List.map
      (fun op ->
        Printf.sprintf "%s %s %s" op.Vfs.op_kind op.Vfs.op_path
          (Option.value ~default:"-" op.Vfs.op_fault))
      (Vfs.oplog inj)
  in
  Alcotest.(check (list string)) "same plan, same ops, same log" (run ()) (run ())

let test_seeded_plan_deterministic () =
  let plan1 = Vfs.seeded_plan ~seed:42 ~ops:30 in
  let plan2 = Vfs.seeded_plan ~seed:42 ~ops:30 in
  Alcotest.(check (list string)) "same seed, same plan"
    (List.map Vfs.fault_name plan1)
    (List.map Vfs.fault_name plan2);
  Alcotest.(check bool) "plan is non-empty" true (List.length plan1 >= 1)

let test_commit_is_atomic_under_crash () =
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "f" "old";
  let ffs, _ = Vfs.faulty ~plan:[ Vfs.Write_crash (1, 5) ] fs in
  (match Vfs.commit ffs "f" "replacement" with
  | () -> Alcotest.fail "commit should crash"
  | exception Vfs.Crash _ -> ());
  Alcotest.(check (option string)) "target untouched by the torn commit"
    (Some "old") (fs.Vfs.fs_read "f");
  (* the orphaned staging file is recognizable for recovery sweeps *)
  Alcotest.(check bool) "staging orphan left behind" true
    (List.exists Vfs.is_commit_temp (fs.Vfs.fs_list ()));
  (* a clean commit replaces atomically and leaves no staging file *)
  Vfs.commit fs "f" "replacement";
  Alcotest.(check (option string)) "committed" (Some "replacement")
    (fs.Vfs.fs_read "f")

(* ------------------------------------------------------------------ *)
(* Build-level fault tolerance                                         *)
(* ------------------------------------------------------------------ *)

let bins_of fs sources =
  List.map (fun f -> Option.get (fs.Vfs.fs_read (f ^ ".bin"))) sources

let pids_of mgr sources =
  List.map
    (fun f -> Pid.to_hex (Driver.unit_of mgr f).Pickle.Binfile.uf_static_pid)
    sources

(* the fault-free serial reference for a topology: final bins and pids *)
let reference topology =
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let mgr = Driver.create fs in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  (bins_of fs sources, pids_of mgr sources)

let test_transient_faults_are_retried () =
  let topology = Gen.Diamond 2 in
  let ref_bins, ref_pids = reference topology in
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let ffs, inj =
    Vfs.faulty ~plan:[ Vfs.Write_fail 2; Vfs.Write_fail 5 ] fs
  in
  let mgr = Driver.create ffs in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check int) "everything compiled despite faults"
    (List.length sources)
    (List.length stats.Driver.st_recompiled);
  Alcotest.(check bool) "the faults really fired" true
    (Vfs.faults_fired inj >= 1);
  Alcotest.(check (list string)) "pids match the fault-free build" ref_pids
    (pids_of mgr sources);
  List.iteri
    (fun i b ->
      Alcotest.(check bool)
        (Printf.sprintf "bin %d matches the fault-free build" i)
        true
        (String.equal b (List.nth ref_bins i)))
    (bins_of fs sources)

let test_torn_bin_self_heals () =
  let topology = Gen.Diamond 2 in
  let ref_bins, ref_pids = reference topology in
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  (* the first write is the first unit's staged bin: tear it silently —
     the commit protocol then installs a corrupt bin under the final
     name, which nothing in this build re-reads *)
  let ffs, _ = Vfs.faulty ~plan:[ Vfs.Write_torn (1, 17) ] fs in
  let mgr = Driver.create ffs in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  (* recovery: the damaged bin is quarantined, the rebuild recompiles
     exactly that unit, and the result converges *)
  let mgr2 = Driver.create fs in
  let report = Driver.recover mgr2 ~sources in
  Alcotest.(check int) "one unit quarantined" 1
    (List.length report.Driver.rv_quarantined);
  let s = Driver.build mgr2 ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list string)) "only the damaged unit recompiles"
    report.Driver.rv_quarantined s.Driver.st_recompiled;
  Alcotest.(check (list string)) "pids converge" ref_pids (pids_of mgr2 sources);
  List.iteri
    (fun i b ->
      Alcotest.(check bool) (Printf.sprintf "bin %d converges" i) true
        (String.equal b (List.nth ref_bins i)))
    (bins_of fs sources)

(* ------------------------------------------------------------------ *)
(* The crash-recovery harness                                          *)
(* ------------------------------------------------------------------ *)

(* Kill a build at write [crash_at] (torn after [torn] bytes), then
   model the next process: recover, gc the cache, rebuild without
   faults, and demand convergence with the fault-free serial build. *)
let crash_and_recover ~topology ~policy ~backend ~with_cache ~crash_at ~torn
    ~ref_bins ~ref_pids =
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let ffs, inj =
    Vfs.faulty ~plan:[ Vfs.Write_crash (crash_at, torn) ] fs
  in
  let mgr = Driver.create ffs in
  let cache = if with_cache then Some (Cache.create ffs) else None in
  let crashed =
    match Driver.build ?cache:(Option.map Cache.ops cache) ~backend mgr ~policy ~sources with
    | _ -> false
    | exception Vfs.Crash _ -> true
  in
  ignore (Vfs.oplog inj);
  (* the next process starts from whatever the dead one left on disk *)
  let mgr2 = Driver.create fs in
  let _report = Driver.recover mgr2 ~sources in
  let cache2 = if with_cache then Some (Cache.create fs) else None in
  Option.iter (fun c -> ignore (Cache.gc c)) cache2;
  let _ = Driver.build ?cache:(Option.map Cache.ops cache2) mgr2 ~policy ~sources in
  let label fmt =
    Printf.ksprintf
      (fun s ->
        Printf.sprintf "%s/%s/crash@%d%s: %s" (Driver.policy_name policy)
          (Sched.backend_name backend) crash_at
          (if crashed then "" else " (no crash fired)")
          s)
      fmt
  in
  Alcotest.(check (list string))
    (label "export pids converge")
    ref_pids (pids_of mgr2 sources);
  List.iteri
    (fun i b ->
      if not (String.equal b (List.nth ref_bins i)) then
        Alcotest.fail (label "bin bytes of unit %d diverge" i))
    (bins_of fs sources);
  (* after convergence the crashed history is invisible: a null rebuild
     loads everything, exactly as it would after the fault-free build *)
  let null = Driver.build ?cache:(Option.map Cache.ops cache2) mgr2 ~policy ~sources in
  Alcotest.(check (list string)) (label "null rebuild recompiles nothing") []
    null.Driver.st_recompiled;
  Alcotest.(check int)
    (label "null rebuild loads every unit")
    (List.length sources)
    (List.length null.Driver.st_loaded)

(* count the eligible writes of one fault-free build of this
   configuration — every one of them is a crash point to exercise *)
let count_writes ~topology ~policy ~backend ~with_cache =
  let fs = Vfs.memory () in
  let project = Gen.create fs topology Gen.default_profile in
  let sources = Gen.sources project in
  let ffs, inj = Vfs.faulty ~plan:[] fs in
  let mgr = Driver.create ffs in
  let cache = if with_cache then Some (Cache.create ffs) else None in
  let _ = Driver.build ?cache:(Option.map Cache.ops cache) ~backend mgr ~policy ~sources in
  Vfs.writes inj

let crash_recovery_exhaustive ~units ~seed ~policy ~backend ~with_cache () =
  let topology = Gen.Random_dag { units; max_deps = 3; seed } in
  let fs_ref = Vfs.memory () in
  let project_ref = Gen.create fs_ref topology Gen.default_profile in
  let sources_ref = Gen.sources project_ref in
  let mgr_ref = Driver.create fs_ref in
  let _ = Driver.build mgr_ref ~policy ~sources:sources_ref in
  let ref_bins = bins_of fs_ref sources_ref in
  let ref_pids = pids_of mgr_ref sources_ref in
  let writes = count_writes ~topology ~policy ~backend ~with_cache in
  Alcotest.(check bool) "the build writes something" true (writes > 0);
  for crash_at = 1 to writes do
    crash_and_recover ~topology ~policy ~backend ~with_cache ~crash_at
      ~torn:(crash_at * 13 mod 48) ~ref_bins ~ref_pids
  done

(* the harness across all three policies and both backends *)
let crash_recovery_cases =
  List.concat_map
    (fun policy ->
      List.map
        (fun backend ->
          Alcotest.test_case
            (Printf.sprintf "crash recovery (%s, %s)"
               (Driver.policy_name policy)
               (Sched.backend_name backend))
            `Quick
            (crash_recovery_exhaustive ~units:6 ~seed:17 ~policy ~backend
               ~with_cache:true))
        backends)
    policies

(* CI runs the harness over published seeds: FAULT_SEEDS=s1,s2,s3 *)
let fixed_seeds () =
  match Sys.getenv_opt "FAULT_SEEDS" with
  | None | Some "" -> [ 7; 23; 101 ]
  | Some s ->
    List.filter_map int_of_string_opt (String.split_on_char ',' (String.trim s))

let test_fixed_seeds () =
  List.iter
    (fun seed ->
      crash_recovery_exhaustive ~units:5 ~seed ~policy:Driver.Cutoff
        ~backend:Driver.Serial ~with_cache:true ())
    (fixed_seeds ())

(* randomized: arbitrary seeded fault plans (torn writes, transient
   failures, corrupted reads, crashes) restricted to bins and cache
   files; whatever happens, recovery must converge *)
let persistent_path path =
  String.length path >= 4
  && (Filename.check_suffix path ".bin"
     || Vfs.is_commit_temp path
     ||
     let dir = Cache.default_dir in
     String.length path > String.length dir
     && String.equal (String.sub path 0 (String.length dir)) dir)

let prop_random_fault_plans_recover =
  QCheck.Test.make ~count:12 ~name:"random fault plans: recovery converges"
    QCheck.(
      quad (int_range 0 1000) (int_range 4 8) (int_range 0 1000)
        (pair
           (oneofl ~print:Driver.policy_name policies)
           (oneofl ~print:Sched.backend_name backends)))
    (fun (dag_seed, units, fault_seed, (policy, backend)) ->
      let topology = Gen.Random_dag { units; max_deps = 3; seed = dag_seed } in
      (* fault-free serial reference *)
      let fs_ref = Vfs.memory () in
      let project_ref = Gen.create fs_ref topology Gen.default_profile in
      let sources_ref = Gen.sources project_ref in
      let mgr_ref = Driver.create fs_ref in
      let _ = Driver.build mgr_ref ~policy ~sources:sources_ref in
      let ref_bins = bins_of fs_ref sources_ref in
      let ref_pids = pids_of mgr_ref sources_ref in
      (* the faulted run *)
      let fs = Vfs.memory () in
      let project = Gen.create fs topology Gen.default_profile in
      let sources = Gen.sources project in
      let plan = Vfs.seeded_plan ~seed:fault_seed ~ops:(4 * units) in
      let ffs, _inj = Vfs.faulty ~only:persistent_path ~plan fs in
      let mgr = Driver.create ffs in
      (match
         Driver.build ~cache:(Cache.ops (Cache.create ffs)) ~backend mgr ~policy ~sources
       with
      | _ -> ()
      | exception (Vfs.Crash _ | Vfs.Fault _) -> ());
      (* recovery in a fresh process *)
      let mgr2 = Driver.create fs in
      let _ = Driver.recover mgr2 ~sources in
      let cache2 = Cache.create fs in
      ignore (Cache.gc cache2);
      let _ = Driver.build ~cache:(Cache.ops cache2) mgr2 ~policy ~sources in
      ref_pids = pids_of mgr2 sources
      && List.for_all2 String.equal ref_bins (bins_of fs sources)
      && (Driver.build ~cache:(Cache.ops cache2) mgr2 ~policy ~sources).Driver.st_recompiled
         = [])

(* after recovery, the next edit behaves exactly as it would have with
   no crash in the history: identical partitions *)
let test_post_recovery_edit_partitions () =
  let topology = Gen.Random_dag { units = 7; max_deps = 3; seed = 5 } in
  List.iter
    (fun policy ->
      (* fault-free history *)
      let fs_ref = Vfs.memory () in
      let project_ref = Gen.create fs_ref topology Gen.default_profile in
      let sources_ref = Gen.sources project_ref in
      let mgr_ref = Driver.create fs_ref in
      let _ = Driver.build mgr_ref ~policy ~sources:sources_ref in
      (* crashed-and-recovered history *)
      let fs = Vfs.memory () in
      let project = Gen.create fs topology Gen.default_profile in
      let sources = Gen.sources project in
      let ffs, _ = Vfs.faulty ~plan:[ Vfs.Write_crash (3, 9) ] fs in
      (match
         Driver.build (Driver.create ffs) ~policy ~sources
       with
      | _ -> ()
      | exception Vfs.Crash _ -> ());
      let mgr = Driver.create fs in
      let _ = Driver.recover mgr ~sources in
      let _ = Driver.build mgr ~policy ~sources in
      (* the same edit on both histories *)
      Gen.edit project_ref (Gen.middle_file project_ref) Gen.Impl_change;
      Gen.edit project (Gen.middle_file project) Gen.Impl_change;
      let s_ref = Driver.build mgr_ref ~policy ~sources:sources_ref in
      let s = Driver.build mgr ~policy ~sources in
      let partitions s =
        ( s.Driver.st_recompiled,
          s.Driver.st_loaded,
          s.Driver.st_cache_hits,
          s.Driver.st_cutoff_hits )
      in
      if partitions s_ref <> partitions s then
        Alcotest.fail
          (Printf.sprintf "%s: post-recovery edit partitions differ"
             (Driver.policy_name policy)))
    policies

(* ------------------------------------------------------------------ *)
(* Vfs.real: reads and mtimes on the host file system                  *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Unix.chmod path 0o755;
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_real_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smlsep-vfs-%s-%d" tag (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir (Vfs.real ~dir))

let read_opt = Alcotest.(option string)
let mtime_opt = Alcotest.(option int)

(* absent things read as [None]: a missing file, a directory, a path
   through a regular file; an empty file and one larger than any read
   buffer read whole; mtimes are whole seconds and a directory has one *)
let test_real_read_paths () =
  with_real_dir "paths" (fun dir fs ->
      let stat_mtime rel =
        Some (int_of_float (Unix.stat (Filename.concat dir rel)).Unix.st_mtime)
      in
      fs.Vfs.fs_write "plain.txt" "hello";
      fs.Vfs.fs_write "empty" "";
      let big = String.init 200_000 (fun i -> Char.chr ((i * 7) mod 256)) in
      fs.Vfs.fs_write "deep/big.bin" big;
      Alcotest.check read_opt "plain" (Some "hello") (fs.Vfs.fs_read "plain.txt");
      Alcotest.check mtime_opt "plain mtime" (stat_mtime "plain.txt")
        (fs.Vfs.fs_mtime "plain.txt");
      Alcotest.check read_opt "missing" None (fs.Vfs.fs_read "missing.sml");
      Alcotest.check mtime_opt "missing mtime" None (fs.Vfs.fs_mtime "missing.sml");
      Alcotest.check read_opt "directory" None (fs.Vfs.fs_read "deep");
      Alcotest.check mtime_opt "directory mtime" (stat_mtime "deep")
        (fs.Vfs.fs_mtime "deep");
      Alcotest.check read_opt "through a file (ENOTDIR)" None
        (fs.Vfs.fs_read "plain.txt/x");
      Alcotest.check mtime_opt "through a file mtime" None
        (fs.Vfs.fs_mtime "plain.txt/x");
      Alcotest.check read_opt "empty" (Some "") (fs.Vfs.fs_read "empty");
      Alcotest.check mtime_opt "empty mtime" (stat_mtime "empty")
        (fs.Vfs.fs_mtime "empty");
      Alcotest.(check bool) "over 64 KiB reads whole" true
        (fs.Vfs.fs_read "deep/big.bin" = Some big))

(* permission errors keep their old outcomes: an unreadable file raises
   [Sys_error], a file under an unsearchable directory is absent.  Root
   reads through any mode, so the case cannot be made as root. *)
let test_real_unreadable () =
  if Unix.geteuid () = 0 then Alcotest.skip ();
  with_real_dir "perm" (fun dir fs ->
      fs.Vfs.fs_write "secret" "x";
      fs.Vfs.fs_write "locked/inner" "y";
      Unix.chmod (Filename.concat dir "secret") 0o000;
      Unix.chmod (Filename.concat dir "locked") 0o000;
      (match fs.Vfs.fs_read "secret" with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "an unreadable file must raise Sys_error");
      Alcotest.(check bool) "unreadable file has an mtime" true
        (fs.Vfs.fs_mtime "secret" <> None);
      Alcotest.check read_opt "under an unsearchable directory" None
        (fs.Vfs.fs_read "locked/inner");
      Alcotest.check mtime_opt "its mtime" None (fs.Vfs.fs_mtime "locked/inner"))

(* a commit on the host file system stages through one name: a crash
   part-way leaves [path.#commit] and nothing else, which recovery
   sweeps; a write fails as [Sys_error] and makes missing parents *)
let test_real_commit_staging () =
  with_real_dir "commit" (fun dir fs ->
      Vfs.commit fs "a/b/unit.sml.bin" "complete";
      Alcotest.(check (list string)) "a clean commit leaves its file only"
        [ "a/b/unit.sml.bin" ] (fs.Vfs.fs_list ());
      let ffs, _ = Vfs.faulty ~plan:[ Vfs.Write_crash (1, 3) ] fs in
      (match Vfs.commit ffs "a/b/unit.sml.bin" "replacement" with
      | () -> Alcotest.fail "the commit must crash"
      | exception Vfs.Crash _ -> ());
      Alcotest.(check (list string)) "a crashed commit leaves .#commit only"
        [ "a/b/unit.sml.bin"; "a/b/unit.sml.bin.#commit" ]
        (fs.Vfs.fs_list ());
      Alcotest.(check (option string)) "the target is untouched"
        (Some "complete") (fs.Vfs.fs_read "a/b/unit.sml.bin");
      let r = Driver.recover (Driver.create fs) ~sources:[] in
      Alcotest.(check int) "recover sweeps it" 1 r.Driver.rv_temps_swept;
      Alcotest.(check (list string)) "nothing staged is left"
        [ "a/b/unit.sml.bin" ] (fs.Vfs.fs_list ());
      Vfs.commit fs "c/d.bin" "x";
      Alcotest.(check bool) "a rename makes its target's parents" true
        (Sys.file_exists (Filename.concat dir "c/d.bin"));
      match fs.Vfs.fs_write "a/b/unit.sml.bin/x" "y" with
      | () -> Alcotest.fail "a write through a file must fail"
      | exception Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Journal stores: torn and crashed writes of either file              *)
(* ------------------------------------------------------------------ *)

(* [prepare fs] runs fault-free; [step] then runs with [fault_at k] on
   the staging name of [file], [k] walking every byte of that write (its
   size measured on a fault-free twin); [outcome fs] reads the store
   back from the disk left.  The distinct outcomes, sorted *)
let every_offset ~dir ~file ~prepare ~step ~outcome fault_at =
  let staged = Filename.concat dir file ^ ".#commit" in
  let size = ref (-1) in
  let twin = Vfs.memory () in
  prepare twin;
  step
    {
      twin with
      Vfs.fs_write =
        (fun path content ->
          if String.equal path staged then size := String.length content;
          twin.Vfs.fs_write path content);
    };
  if !size < 0 then Alcotest.failf "no write of %s" staged;
  List.init (!size + 1) (fun k ->
      let fs = Vfs.memory () in
      prepare fs;
      let ffs, _ =
        Vfs.faulty ~only:(String.equal staged) ~plan:[ fault_at k ] fs
      in
      (try step ffs with Vfs.Crash _ -> ());
      outcome fs)
  |> List.sort_uniq compare

let test_journal_stores_torn_writes () =
  let module P = Obs.Profile in
  let build id =
    {
      P.bp_id = id;
      bp_policy = "cutoff";
      bp_backend = "serial";
      bp_wall_s = 1.;
      bp_jobs = 1;
      bp_slot_busy_s = [];
      bp_schedule = "wavefront";
      bp_units =
        [
          {
            P.up_unit = "a.sml";
            up_outcome = "recompiled";
            up_cause = None;
            up_culprits = [];
            up_start_s = 0.;
            up_wall_s = 0.1;
            up_phases = [];
            up_imports = [];
            up_priority = 0.;
          };
        ];
    }
  in
  let ids n = List.init n (fun i -> i + 1) in
  (* the retained window of builds [1..m], and each build compiled
     [a.sml] once *)
  let window m = List.init (min 16 m) (fun i -> max 1 (m - 15) + i) in
  let seg n = "journal." ^ string_of_int n in
  let outcome fs =
    let p = P.load fs in
    let kept = List.map (fun b -> b.P.bp_id) (P.builds p) in
    let m = List.fold_left max 0 kept in
    let compiles =
      Option.fold ~none:0 ~some:(fun a -> a.P.ag_builds) (P.aggregate p "a.sml")
    in
    if kept <> window m then
      Alcotest.failf "builds [%s] are not a prefix of the history"
        (String.concat ";" (List.map string_of_int kept));
    if compiles > m then
      Alcotest.failf "%d compiles aggregated for %d builds" compiles m;
    (m, compiles)
  in
  let prepare n fs =
    let p = P.load fs in
    List.iter (fun id -> P.record p (build id)) (ids n)
  in
  let next n ffs = P.record (P.load ffs) (build (n + 1)) in
  (* the profile: builds [1..n] recorded, then build n+1 under the
     fault; the outcome is the newest build loaded and the compiles
     aggregated *)
  let profile ~n ~file fault =
    every_offset ~dir:P.default_dir ~file ~prepare:(prepare n) ~step:(next n)
      ~outcome fault
  in
  let check what expected got =
    Alcotest.(check (list (pair int int))) what expected got
  in
  check "profile segment, crash: the old records" [ (3, 3) ]
    (profile ~n:3 ~file:(seg 4) (fun k -> Vfs.Write_crash (1, k)));
  (* a torn segment is not one whole line: dropped *)
  check "profile segment, torn: dropped or whole" [ (3, 3); (4, 4) ]
    (profile ~n:3 ~file:(seg 4) (fun k -> Vfs.Write_torn (1, k)));
  (* the 25th build compacts: its snapshot write is the faulted one *)
  check "profile snapshot, crash: every segment survives" [ (25, 25) ]
    (profile ~n:24 ~file:"store" (fun k -> Vfs.Write_crash (1, k)));
  (* a torn snapshot loses its aggregates (or its head, found again
     from the segments left): the retained records are rolled again,
     once each *)
  check "profile snapshot, torn: aggregates degrade" [ (25, 16); (25, 25) ]
    (profile ~n:24 ~file:"store" (fun k -> Vfs.Write_torn (1, k)));
  (* each step of that compaction interrupted: the snapshot's rename,
     the legacy journal's removal and each segment's; the store loads
     whole, and the next compaction leaves only the live segments *)
  let live fs =
    List.filter
      (fun path ->
        String.starts_with ~prefix:(Filename.concat P.default_dir "journal") path)
      (fs.Vfs.fs_list ())
  in
  List.iter
    (fun fault ->
      let fs = Vfs.memory () in
      prepare 24 fs;
      let ffs, inj = Vfs.faulty ~plan:[ fault ] fs in
      (match next 24 ffs with
      | () -> Alcotest.failf "%s must fail the compaction" (Vfs.fault_name fault)
      | exception Vfs.Fault _ -> ());
      if Vfs.faults_fired inj <> 1 then
        Alcotest.failf "%s did not fire" (Vfs.fault_name fault);
      check (Vfs.fault_name fault) [ (25, 25) ] [ outcome fs ];
      let p = P.load fs in
      List.iter (fun id -> P.record p (build id)) (List.init 9 (fun i -> i + 26));
      let files = List.sort compare (live fs) in
      let first = 35 - List.length files in
      Alcotest.(check (list string))
        (Vfs.fault_name fault ^ ": the next compaction tidies")
        (List.sort compare
           (List.init (List.length files) (fun i ->
                Filename.concat P.default_dir (seg (first + i)))))
        files;
      if List.length files > 24 then
        Alcotest.failf "%s: %d live segments" (Vfs.fault_name fault)
          (List.length files);
      if List.exists Vfs.is_commit_temp (fs.Vfs.fs_list ()) then
        Alcotest.failf "%s: a staging file is left" (Vfs.fault_name fault);
      check (Vfs.fault_name fault ^ ": then") [ (34, 34) ] [ outcome fs ])
    (Vfs.Rename_fail 2 :: List.init 10 (fun i -> Vfs.Remove_fail (i + 1)));
  (* a crashed segment commit leaves its staging file, which the next
     record commits through and recovery sweeps *)
  let fs = Vfs.memory () in
  prepare 3 fs;
  let staged = Vfs.commit_path (Filename.concat P.default_dir (seg 4)) in
  let crash () =
    let ffs, _ = Vfs.faulty ~plan:[ Vfs.Write_crash (1, 5) ] fs in
    (try next 3 ffs with Vfs.Crash _ -> ());
    Alcotest.(check bool) "a crashed segment leaves its staging file" true
      (fs.Vfs.fs_read staged <> None)
  in
  crash ();
  let swept = Driver.recover (Driver.create fs) ~sources:[] in
  Alcotest.(check int) "recover sweeps it" 1 swept.Driver.rv_temps_swept;
  crash ();
  next 3 fs;
  Alcotest.(check (option string)) "the next record commits through it" None
    (fs.Vfs.fs_read staged);
  check "and lands" [ (4, 4) ] [ outcome fs ];
  (* the cache: entries 1..3 stored, then a fourth under the fault; the
     outcome is the keys that hit with their own bytes *)
  let key i = Printf.sprintf "%04x" i and bytes i = String.make (10 + i) 'x' in
  let populate fs =
    let c = Cache.create fs in
    List.iter (fun i -> Cache.store c (key i) (bytes i)) (ids 3)
  in
  let hits fs =
    let c = Cache.create fs in
    List.filter (fun i -> Cache.find c (key i) = Some (bytes i)) (ids 4)
  in
  let cache ~file ~step fault =
    every_offset ~dir:".irm-cache" ~file ~prepare:populate ~step ~outcome:hits
      fault
  in
  let check what expected got =
    Alcotest.(check (list (list int))) what expected got
  in
  (* the object is committed first, then the record: segment 4 *)
  let store4 ffs = Cache.store (Cache.create ffs) (key 4) (bytes 4) in
  check "cache segment, crash: the old records" [ ids 3 ]
    (cache ~file:(seg 4) ~step:store4 (fun k -> Vfs.Write_crash (1, k)));
  check "cache segment, torn: dropped or whole" [ ids 3; ids 4 ]
    (cache ~file:(seg 4) ~step:store4 (fun k -> Vfs.Write_torn (1, k)));
  let gc ffs = ignore (Cache.gc (Cache.create ffs)) in
  check "cache index, crash: the segments survive" [ ids 3 ]
    (cache ~file:"index" ~step:gc (fun k -> Vfs.Write_crash (1, k)));
  (* the segments are gone, so a torn index may lose entries, but every
     entry it keeps hits with its own bytes *)
  List.iter
    (fun kept ->
      if not (List.for_all (fun i -> List.mem i (ids 3)) kept) then
        Alcotest.fail "a torn index produced a phantom entry")
    (cache ~file:"index" ~step:gc (fun k -> Vfs.Write_torn (1, k)));
  (* each step of a compaction interrupted: no phantom, no loss, and
     the next compaction leaves the index alone *)
  List.iter
    (fun fault ->
      let fs = Vfs.memory () in
      populate fs;
      let ffs, inj = Vfs.faulty ~plan:[ fault ] fs in
      (match gc ffs with
      | () -> Alcotest.failf "%s must fail the compaction" (Vfs.fault_name fault)
      | exception Vfs.Fault _ -> ());
      if Vfs.faults_fired inj <> 1 then
        Alcotest.failf "%s did not fire" (Vfs.fault_name fault);
      check (Vfs.fault_name fault) [ ids 3 ] [ hits fs ];
      gc fs;
      Alcotest.(check (list string))
        (Vfs.fault_name fault ^ ": the next compaction tidies")
        [ ".irm-cache/index" ]
        (List.filter
           (fun path -> not (String.starts_with ~prefix:".irm-cache/objects/" path))
           (fs.Vfs.fs_list ()));
      check (Vfs.fault_name fault ^ ": then") [ ids 3 ] [ hits fs ])
    (Vfs.Rename_fail 1 :: List.init 4 (fun i -> Vfs.Remove_fail (i + 1)))

let suite =
  [
    Alcotest.test_case "real fs: read and mtime paths" `Quick
      test_real_read_paths;
    Alcotest.test_case "real fs: unreadable paths" `Quick test_real_unreadable;
    Alcotest.test_case "torn writes are silent" `Quick test_torn_write_is_silent;
    Alcotest.test_case "write failures are transient" `Quick
      test_write_fail_is_transient;
    Alcotest.test_case "a crash kills the process" `Quick
      test_crash_kills_the_process;
    Alcotest.test_case "read corruption" `Quick test_read_corruption;
    Alcotest.test_case "op-log is deterministic" `Quick test_oplog_deterministic;
    Alcotest.test_case "seeded plans are deterministic" `Quick
      test_seeded_plan_deterministic;
    Alcotest.test_case "commit is atomic under crash" `Quick
      test_commit_is_atomic_under_crash;
    Alcotest.test_case "transient faults are retried" `Quick
      test_transient_faults_are_retried;
    Alcotest.test_case "torn bin self-heals via recover" `Quick
      test_torn_bin_self_heals;
  ]
  @ crash_recovery_cases
  @ [
      Alcotest.test_case "crash recovery (published seeds)" `Quick
        test_fixed_seeds;
      Alcotest.test_case "post-recovery edits behave identically" `Quick
        test_post_recovery_edit_partitions;
      QCheck_alcotest.to_alcotest prop_random_fault_plans_recover;
      Alcotest.test_case "real fs: a commit stages through .#commit only"
        `Quick test_real_commit_staging;
      Alcotest.test_case "journal stores: torn and crashed writes" `Quick
        test_journal_stores_torn_writes;
    ]
