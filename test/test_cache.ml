(* The content-addressed unit cache: warm-cache rebuilds from clean,
   miss-on-edit / hit-on-revert, LRU eviction under a byte budget, and
   corruption (object or index) degrading to misses, never to errors. *)

module Gen = Workload.Gen
module Driver = Irm.Driver

let setup () =
  let fs = Vfs.memory () in
  let project = Gen.create fs (Gen.Diamond 3) Gen.default_profile in
  (fs, project, Gen.sources project)

let clean_bins fs sources =
  List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources

let cache_objects fs =
  List.filter
    (fun path ->
      String.length path > 19
      && String.equal (String.sub path 0 19) ".irm-cache/objects/")
    (fs.Vfs.fs_list ())

let test_warm_cache_from_clean () =
  let fs, _, sources = setup () in
  let mgr = Driver.create fs in
  let s0 =
    Driver.build ~cache:(Cache.ops (Cache.create fs)) mgr ~policy:Driver.Cutoff ~sources
  in
  Alcotest.(check int) "cold build compiles everything" (List.length sources)
    (List.length s0.Driver.st_recompiled);
  clean_bins fs sources;
  (* fresh manager and fresh cache handle over the same file system:
     a new process finding the cache a previous one left behind *)
  let mgr2 = Driver.create fs in
  let s1 =
    Driver.build ~cache:(Cache.ops (Cache.create fs)) mgr2 ~policy:Driver.Cutoff ~sources
  in
  Alcotest.(check int) "warm from-clean build recompiles nothing" 0
    (List.length s1.Driver.st_recompiled);
  Alcotest.(check int) "every unit served from the cache"
    (List.length sources)
    (List.length s1.Driver.st_cache_hits);
  (* and the result is a working build *)
  let dynenv = Driver.run mgr2 ~sources in
  Alcotest.(check int) "cached build runs" (List.length sources)
    (Digestkit.Pid.Map.cardinal dynenv)

let test_edit_misses_revert_hits () =
  let fs, project, sources = setup () in
  let cache = Cache.create fs in
  let mgr = Driver.create fs in
  let _ = Driver.build ~cache:(Cache.ops cache) mgr ~policy:Driver.Cutoff ~sources in
  let victim = Gen.middle_file project in
  let original = Option.get (fs.Vfs.fs_read victim) in
  Gen.edit project victim Gen.Impl_change;
  let s1 = Driver.build ~cache:(Cache.ops cache) mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list string)) "edited source misses and recompiles"
    [ victim ] s1.Driver.st_recompiled;
  Alcotest.(check (list string)) "no hit for never-seen content" []
    s1.Driver.st_cache_hits;
  (* revert: same bytes as the first build, newer mtime — stale by
     timestamp, but the content address is back in the cache *)
  fs.Vfs.fs_write victim original;
  let s2 = Driver.build ~cache:(Cache.ops cache) mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list string)) "reverted source hits" [ victim ]
    s2.Driver.st_cache_hits;
  Alcotest.(check (list string)) "nothing recompiled on revert" []
    s2.Driver.st_recompiled

let test_eviction_respects_budget () =
  let fs = Vfs.memory () in
  let cache = Cache.create ~budget_bytes:100 fs in
  let blob c = String.make 40 c in
  Cache.store cache "aa" (blob 'a');
  Cache.store cache "bb" (blob 'b');
  ignore (Cache.find cache "aa");
  (* 120 bytes would exceed the 100-byte budget: the LRU entry — bb,
     since aa was just touched — must go *)
  Cache.store cache "cc" (blob 'c');
  let st = Cache.stats cache in
  Alcotest.(check bool) "within budget" true (st.Cache.cs_bytes <= 100);
  Alcotest.(check int) "two entries left" 2 st.Cache.cs_entries;
  Alcotest.(check bool) "LRU entry evicted" true (Cache.find cache "bb" = None);
  Alcotest.(check bool) "recently-used entry survives" true
    (Cache.find cache "aa" <> None);
  Alcotest.(check bool) "new entry survives" true
    (Cache.find cache "cc" <> None);
  (* an entry larger than the whole budget is refused outright *)
  Cache.store cache "dd" (String.make 200 'd');
  Alcotest.(check bool) "oversized entry not stored" true
    (Cache.find cache "dd" = None)

let test_corrupt_objects_degrade_to_misses () =
  let fs, _, sources = setup () in
  let mgr = Driver.create fs in
  let _ =
    Driver.build ~cache:(Cache.ops (Cache.create fs)) mgr ~policy:Driver.Cutoff ~sources
  in
  (* smash every cached object, keeping sizes intact so the index still
     trusts them: the CRC check in Binfile.read must catch it *)
  List.iter
    (fun path ->
      let size = String.length (Option.get (fs.Vfs.fs_read path)) in
      fs.Vfs.fs_write path (String.make size 'x'))
    (cache_objects fs);
  clean_bins fs sources;
  let mgr2 = Driver.create fs in
  let s =
    Driver.build ~cache:(Cache.ops (Cache.create fs)) mgr2 ~policy:Driver.Cutoff ~sources
  in
  Alcotest.(check int) "all recompiled, no error" (List.length sources)
    (List.length s.Driver.st_recompiled);
  Alcotest.(check (list string)) "no hits from garbage" []
    s.Driver.st_cache_hits

let test_truncated_objects_degrade_to_misses () =
  let fs, _, sources = setup () in
  let mgr = Driver.create fs in
  let _ =
    Driver.build ~cache:(Cache.ops (Cache.create fs)) mgr ~policy:Driver.Cutoff ~sources
  in
  (* truncate instead: the size recorded in the index no longer
     matches, which the cache itself must treat as a miss *)
  List.iter (fun path -> fs.Vfs.fs_write path "stub") (cache_objects fs);
  clean_bins fs sources;
  let mgr2 = Driver.create fs in
  let s =
    Driver.build ~cache:(Cache.ops (Cache.create fs)) mgr2 ~policy:Driver.Cutoff ~sources
  in
  Alcotest.(check int) "all recompiled, no error" (List.length sources)
    (List.length s.Driver.st_recompiled)

let test_corrupt_index_is_empty_cache () =
  let fs = Vfs.memory () in
  fs.Vfs.fs_write ".irm-cache/index" "complete garbage\n-3 x\nnot a line";
  let cache = Cache.create fs in
  Alcotest.(check int) "damaged index reads as empty" 0
    (Cache.stats cache).Cache.cs_entries;
  (* and the instance still works *)
  let key =
    Cache.key ~version:"v1" ~name:"u.sml" ~source:"val x = 1" ~import_pids:[]
  in
  Cache.store cache key "some bytes";
  Alcotest.(check bool) "store after damage works" true
    (Cache.find cache key <> None)

let test_key_sensitivity () =
  let pid_a = Digestkit.Pid.intrinsic "interface a" in
  let pid_b = Digestkit.Pid.intrinsic "interface b" in
  let base =
    Cache.key ~version:"v1" ~name:"u.sml" ~source:"src"
      ~import_pids:[ pid_a; pid_b ]
  in
  let same_reordered =
    Cache.key ~version:"v1" ~name:"u.sml" ~source:"src"
      ~import_pids:[ pid_b; pid_a ]
  in
  Alcotest.(check string) "import order does not matter" base same_reordered;
  List.iter
    (fun (label, key) ->
      Alcotest.(check bool) label false (String.equal base key))
    [
      ( "source changes the key",
        Cache.key ~version:"v1" ~name:"u.sml" ~source:"src'"
          ~import_pids:[ pid_a; pid_b ] );
      ( "imports change the key",
        Cache.key ~version:"v1" ~name:"u.sml" ~source:"src"
          ~import_pids:[ pid_a ] );
      ( "version changes the key",
        Cache.key ~version:"v2" ~name:"u.sml" ~source:"src"
          ~import_pids:[ pid_a; pid_b ] );
      ( "unit name changes the key",
        Cache.key ~version:"v1" ~name:"v.sml" ~source:"src"
          ~import_pids:[ pid_a; pid_b ] );
    ]

let test_clear_and_gc () =
  let fs = Vfs.memory () in
  let cache = Cache.create ~budget_bytes:1000 fs in
  Cache.store cache "aa" (String.make 30 'a');
  Cache.store cache "bb" (String.make 30 'b');
  let report = Cache.gc cache in
  Alcotest.(check int) "gc under budget evicts nothing" 0
    report.Cache.gc_evicted;
  Alcotest.(check int) "gc under budget keeps everything" 2
    (Cache.stats cache).Cache.cs_entries;
  Cache.clear cache;
  Alcotest.(check int) "clear drops everything" 0
    (Cache.stats cache).Cache.cs_entries;
  Alcotest.(check int) "clear leaves no bytes" 0
    (Cache.stats cache).Cache.cs_bytes;
  Alcotest.(check bool) "objects gone from disk" true (cache_objects fs = [])

let test_crash_between_object_and_index () =
  let fs = Vfs.memory () in
  (* a store is: commit the object (write 1), then commit the journal
     record (write 2).  Crash during write 2: the object is on disk but
     no index will ever learn the key *)
  let ffs, _ = Vfs.faulty ~plan:[ Vfs.Write_crash (2, 5) ] fs in
  let cache = Cache.create ffs in
  (match Cache.store cache "aa" (String.make 30 'a') with
  | () -> Alcotest.fail "store should crash mid-journal-update"
  | exception Vfs.Crash _ -> ());
  Alcotest.(check int) "the orphaned object is on disk" 1
    (List.length (cache_objects fs));
  (* the next process: the key is a miss, never a torn hit *)
  let cache2 = Cache.create fs in
  Alcotest.(check int) "crashed store is invisible to the index" 0
    (Cache.stats cache2).Cache.cs_entries;
  Alcotest.(check bool) "lookup degrades to a miss" true
    (Cache.find cache2 "aa" = None);
  (* gc reclaims the orphan (and the torn journal staging file) *)
  let report = Cache.gc cache2 in
  Alcotest.(check bool) "gc finds the orphans" true
    (report.Cache.gc_orphans >= 1);
  Alcotest.(check bool) "gc reports the reclaimed bytes" true
    (report.Cache.gc_reclaimed_bytes >= 30);
  Alcotest.(check (list string)) "objects directory is clean" []
    (cache_objects fs)

let test_concurrent_eviction_during_lookup () =
  let fs = Vfs.memory () in
  let a = Cache.create fs in
  Cache.store a "aa" (String.make 30 'a');
  Cache.store a "bb" (String.make 30 'b');
  (* a second process opens the same cache and learns both keys *)
  let b = Cache.create fs in
  Alcotest.(check int) "second handle sees both entries" 2
    (Cache.stats b).Cache.cs_entries;
  (* the first process evicts aa behind the second one's back *)
  Cache.invalidate a "aa";
  Alcotest.(check bool) "stale lookup degrades to a miss" true
    (Cache.find b "aa" = None);
  Alcotest.(check bool) "unaffected entries still hit" true
    (Cache.find b "bb" <> None);
  (* and the first process clearing everything is just more misses *)
  Cache.clear a;
  Alcotest.(check bool) "lookup after a concurrent clear" true
    (Cache.find b "bb" = None)

let test_gc_reclaims_strays () =
  let fs = Vfs.memory () in
  let cache = Cache.create fs in
  Cache.store cache "aa" (String.make 30 'a');
  (* a stray object nothing indexes, and a staging file left by some
     interrupted commit *)
  fs.Vfs.fs_write ".irm-cache/objects/deadbeef" (String.make 25 'x');
  fs.Vfs.fs_write ".irm-cache/objects/cafe.#commit" (String.make 15 'y');
  let report = Cache.gc cache in
  Alcotest.(check int) "both strays reclaimed" 2 report.Cache.gc_orphans;
  Alcotest.(check int) "reclaimed bytes reported" 40
    report.Cache.gc_reclaimed_bytes;
  Alcotest.(check bool) "live entry untouched" true
    (Cache.find cache "aa" <> None);
  Alcotest.(check int) "nothing evicted" 0 report.Cache.gc_evicted

(* journal compaction racing a crash: gc's only eligible write is the
   index-snapshot commit (the stores ran fault-free beforehand), so
   [Write_crash (1, k)] walks the truncation point through every byte of
   the snapshot.  Whatever the offset, the staged temp never reaches the
   final name: a reopened cache must see exactly the stored entries — no
   lost, no phantom. *)
let compaction_entries = 5

let populate_cache fs =
  let cache = Cache.create fs in
  let entries =
    List.init compaction_entries (fun i ->
        ( Printf.sprintf "%02x%02x" i i,
          String.make (20 + i) (Char.chr (Char.code 'a' + i)) ))
  in
  List.iter (fun (k, v) -> Cache.store cache k v) entries;
  entries

let check_entries_survive name fs entries =
  let cache = Cache.create fs in
  Alcotest.(check int)
    (name ^ ": no lost or phantom entries")
    compaction_entries
    (Cache.stats cache).Cache.cs_entries;
  List.iter
    (fun (key, value) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: entry %s intact" name key)
        true
        (Cache.find cache key = Some value))
    entries

let test_compaction_crash_recovery () =
  (* measure the compacted snapshot on a pristine twin — the memory fs
     is deterministic, so every trial below writes identical bytes *)
  let fs0 = Vfs.memory () in
  let _ = populate_cache fs0 in
  ignore (Cache.gc (Cache.create fs0));
  let index_len =
    String.length (Option.get (fs0.Vfs.fs_read ".irm-cache/index"))
  in
  Alcotest.(check bool) "snapshot is non-trivial" true (index_len > 0);
  for k = 0 to index_len do
    let fs = Vfs.memory () in
    let entries = populate_cache fs in
    let ffs, _ = Vfs.faulty ~plan:[ Vfs.Write_crash (1, k) ] fs in
    (match Cache.gc (Cache.create ffs) with
    | _ -> Alcotest.failf "gc truncated at %d should crash" k
    | exception Vfs.Crash _ -> ());
    check_entries_survive (Printf.sprintf "crash at byte %d" k) fs entries
  done

let test_stale_journal_replay () =
  (* the other half of the compaction window: the new snapshot reached
     the final name but the crash hit before the journal was removed.
     Replaying the stale journal over the fresh snapshot must be
     idempotent — same entries, no duplicates. *)
  let fs = Vfs.memory () in
  let entries = populate_cache fs in
  let stale_journal = Option.get (fs.Vfs.fs_read ".irm-cache/journal") in
  ignore (Cache.gc (Cache.create fs));
  Alcotest.(check bool) "compaction removed the journal" true
    (fs.Vfs.fs_read ".irm-cache/journal" = None);
  fs.Vfs.fs_write ".irm-cache/journal" stale_journal;
  check_entries_survive "stale journal replay" fs entries

(* a store reloaded mid-journal counts the records it found, so it
   compacts at the same record as a store that was never reloaded *)
let test_reload_compacts_at_the_same_record () =
  let journal fs = fs.Vfs.fs_read ".irm-cache/journal" in
  let fs_a = Vfs.memory () and fs_b = Vfs.memory () in
  let key i = Printf.sprintf "%04x" i in
  let a = ref (Cache.create fs_a) and b = Cache.create fs_b in
  for i = 1 to 520 do
    if i = 4 then a := Cache.create fs_a;
    Cache.store !a (key i) "x";
    Cache.store b (key i) "x";
    Alcotest.(check (option string))
      (Printf.sprintf "journal after record %d" i)
      (journal fs_b) (journal fs_a)
  done

let suite =
  [
    Alcotest.test_case "warm cache rebuilds from clean" `Quick
      test_warm_cache_from_clean;
    Alcotest.test_case "edit misses, revert hits" `Quick
      test_edit_misses_revert_hits;
    Alcotest.test_case "eviction respects budget" `Quick
      test_eviction_respects_budget;
    Alcotest.test_case "corrupt objects are misses" `Quick
      test_corrupt_objects_degrade_to_misses;
    Alcotest.test_case "truncated objects are misses" `Quick
      test_truncated_objects_degrade_to_misses;
    Alcotest.test_case "corrupt index is empty cache" `Quick
      test_corrupt_index_is_empty_cache;
    Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
    Alcotest.test_case "clear and gc" `Quick test_clear_and_gc;
    Alcotest.test_case "crash between object write and index update" `Quick
      test_crash_between_object_and_index;
    Alcotest.test_case "concurrent eviction during lookup" `Quick
      test_concurrent_eviction_during_lookup;
    Alcotest.test_case "gc reclaims strays" `Quick test_gc_reclaims_strays;
    Alcotest.test_case "compaction crash at every write offset" `Quick
      test_compaction_crash_recovery;
    Alcotest.test_case "stale journal replay is idempotent" `Quick
      test_stale_journal_replay;
    Alcotest.test_case "reloaded store compacts at the same record" `Quick
      test_reload_compacts_at_the_same_record;
  ]
