(* The build introspection layer: the persistent profile store, the
   driver's rebuild-cause attribution, and the scheduler occupancy
   stats that feed [irm explain] / [irm profile]. *)

module Profile = Obs.Profile
module Driver = Irm.Driver

let mk_unit ?(outcome = "recompiled") ?cause ?(culprits = []) ?(wall = 0.1)
    ?(phases = []) ?(priority = 0.) name =
  {
    Profile.up_unit = name;
    up_outcome = outcome;
    up_cause = cause;
    up_culprits = culprits;
    up_start_s = 0.;
    up_wall_s = wall;
    up_phases = phases;
    up_imports = [];
    up_priority = priority;
  }

let mk_build ?(id = 1) ?(policy = "cutoff") ?(wall = 1.0) ?(jobs = 1)
    ?(busy = [ 0.5 ]) ?(schedule = "wavefront") units =
  {
    Profile.bp_id = id;
    bp_policy = policy;
    bp_backend = "serial";
    bp_wall_s = wall;
    bp_jobs = jobs;
    bp_slot_busy_s = busy;
    bp_schedule = schedule;
    bp_units = units;
  }

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  let fs = Vfs.memory () in
  let p = Profile.load fs in
  Alcotest.(check int) "fresh store: next id 1" 1 (Profile.next_id p);
  Profile.record p (mk_build ~id:1 [ mk_unit ~wall:0.2 "a.sml" ]);
  Profile.record p
    (mk_build ~id:2
       [ mk_unit ~wall:0.4 "a.sml"; mk_unit ~outcome:"loaded" "b.sml" ]);
  let p' = Profile.load fs in
  Alcotest.(check int) "two builds retained" 2 (List.length (Profile.builds p'));
  Alcotest.(check int) "next id advances" 3 (Profile.next_id p');
  (match Profile.last p' with
  | Some b -> Alcotest.(check int) "last build is newest" 2 b.Profile.bp_id
  | None -> Alcotest.fail "no last build after reload");
  Alcotest.(check bool) "a.sml known" true (Profile.known p' "a.sml");
  Alcotest.(check bool) "b.sml known (loaded counts)" true
    (Profile.known p' "b.sml");
  Alcotest.(check bool) "unseen unit unknown" false (Profile.known p' "z.sml");
  Alcotest.(check bool) "store has bytes on disk" true
    (Profile.store_bytes p' > 0)

let test_ewma_and_max () =
  let fs = Vfs.memory () in
  let p = Profile.load fs in
  Profile.record p
    (mk_build ~id:1 [ mk_unit ~wall:1.0 ~phases:[ ("parse", 0.5) ] "a.sml" ]);
  (match Profile.aggregate p "a.sml" with
  | Some a ->
    Alcotest.(check (float 1e-9)) "first compile seeds the ewma" 1.0
      a.Profile.ag_ewma_s
  | None -> Alcotest.fail "no aggregate after first compile");
  Profile.record p
    (mk_build ~id:2
       [
         mk_unit ~wall:2.0
           ~phases:[ ("parse", 1.5); ("elaborate", 0.25) ]
           "a.sml";
       ]);
  match Profile.aggregate p "a.sml" with
  | None -> Alcotest.fail "no aggregate after second compile"
  | Some a ->
    Alcotest.(check int) "two compiles aggregated" 2 a.Profile.ag_builds;
    (* alpha = 0.3: 0.7 * 1.0 + 0.3 * 2.0 *)
    Alcotest.(check (float 1e-9)) "ewma rolls" 1.3 a.Profile.ag_ewma_s;
    Alcotest.(check (float 1e-9)) "max tracks the peak" 2.0 a.Profile.ag_max_s;
    Alcotest.(check (float 1e-9)) "last is the newest" 2.0 a.Profile.ag_last_s;
    Alcotest.(check (float 1e-9))
      "phase ewma rolls" 0.8
      (List.assoc "parse" a.Profile.ag_phases);
    Alcotest.(check (float 1e-9))
      "new phase enters at face value" 0.25
      (List.assoc "elaborate" a.Profile.ag_phases)

(* loads and cache hits say nothing about compile time *)
let test_aggregate_only_fed_by_compiles () =
  let fs = Vfs.memory () in
  let p = Profile.load fs in
  Profile.record p (mk_build ~id:1 [ mk_unit ~outcome:"loaded" "a.sml" ]);
  Alcotest.(check bool) "loaded does not aggregate" true
    (Profile.aggregate p "a.sml" = None);
  Profile.record p (mk_build ~id:2 [ mk_unit ~outcome:"cutoff" "a.sml" ]);
  Alcotest.(check bool) "cutoff does aggregate" true
    (Profile.aggregate p "a.sml" <> None)

(* the store's files: the snapshot and the [journal.<n>] segments *)
let store_path name = Filename.concat Profile.default_dir name
let segment n = store_path ("journal." ^ string_of_int n)

let store_files fs =
  List.filter
    (String.starts_with ~prefix:(Profile.default_dir ^ "/"))
    (fs.Vfs.fs_list ())

let live_segments fs =
  List.filter
    (fun path ->
      String.starts_with ~prefix:(store_path "journal.") path
      && not (Vfs.is_commit_temp path))
    (store_files fs)

let test_damaged_store_degrades () =
  let fs = Vfs.memory () in
  let p = Profile.load fs in
  Profile.record p (mk_build ~id:1 [ mk_unit "a.sml" ]);
  (* a valid record followed by a torn segment: the valid prefix
     survives, the torn record is dropped *)
  Alcotest.(check bool) "a record is a segment" true
    (fs.Vfs.fs_read (segment 1) <> None);
  fs.Vfs.fs_write (segment 2) "deadbeef {\"torn\":";
  let p' = Profile.load fs in
  Alcotest.(check int) "valid prefix survives a torn segment" 1
    (List.length (Profile.builds p'));
  (* the next record takes the next number: the torn one is never
     written onto *)
  Profile.record p' (mk_build ~id:2 [ mk_unit "a.sml" ]);
  Alcotest.(check (list int)) "a record after the torn segment" [ 1; 2 ]
    (List.map (fun b -> b.Profile.bp_id) (Profile.builds (Profile.load fs)));
  (* a corrupt snapshot is an empty store, never an error *)
  List.iter fs.Vfs.fs_remove (store_files fs);
  fs.Vfs.fs_write (store_path "store") "not a snapshot at all";
  let p'' = Profile.load fs in
  Alcotest.(check int) "corrupt snapshot loads as empty" 0
    (List.length (Profile.builds p''));
  Alcotest.(check bool) "and records fine afterwards" true
    (Profile.record p'' (mk_build ~id:1 [ mk_unit "a.sml" ]);
     List.length (Profile.builds (Profile.load fs)) = 1)

(* older builds wrote a [static_releases] count into every build
   record; such a record still loads, field for field *)
let test_old_static_releases_field_loads () =
  let fs = Vfs.memory () in
  let p = Profile.load fs in
  Profile.record p
    (mk_build ~id:1 ~schedule:"critical-path"
       [ mk_unit ~wall:0.2 "a.sml"; mk_unit ~outcome:"loaded" "b.sml" ]);
  let body =
    match fs.Vfs.fs_read (segment 1) with
    | Some j -> (
      match String.index_opt j ' ' with
      | Some sp -> String.trim (String.sub j (sp + 1) (String.length j - sp - 1))
      | None -> Alcotest.fail "record has no CRC")
    | None -> Alcotest.fail "segment missing after record"
  in
  let old_body =
    "{\"static_releases\":2,"
    ^ String.sub body 1 (String.length body - 1)
  in
  fs.Vfs.fs_write (segment 1)
    (Printf.sprintf "%Lx %s\n" (Digestkit.Crc64.of_string old_body) old_body);
  let p' = Profile.load fs in
  match Profile.builds p' with
  | [ b ] ->
    Alcotest.(check string) "schedule" "critical-path" b.Profile.bp_schedule;
    Alcotest.(check (list string)) "units" [ "a.sml"; "b.sml" ]
      (List.map (fun u -> u.Profile.up_unit) b.Profile.bp_units);
    Alcotest.(check bool) "aggregate fed" true
      (Profile.aggregate p' "a.sml" <> None);
    Alcotest.(check int) "next id" 2 (Profile.next_id p')
  | bs -> Alcotest.failf "expected one build, got %d" (List.length bs)

let test_history_is_bounded () =
  let fs = Vfs.memory () in
  let p = Profile.load fs in
  for i = 1 to 40 do
    Profile.record p (mk_build ~id:i [ mk_unit ~wall:(float_of_int i) "a.sml" ])
  done;
  let p' = Profile.load fs in
  let builds = Profile.builds p' in
  Alcotest.(check bool) "history bounded" true (List.length builds <= 16);
  (match Profile.last p' with
  | Some b -> Alcotest.(check int) "newest retained" 40 b.Profile.bp_id
  | None -> Alcotest.fail "no last build");
  match Profile.aggregate p' "a.sml" with
  | Some a ->
    Alcotest.(check int)
      "aggregate outlives the evicted history" 40 a.Profile.ag_builds
  | None -> Alcotest.fail "aggregate lost"

let test_critical_path_and_efficiency () =
  let a = mk_unit ~wall:0.3 "a.sml" in
  let b =
    { (mk_unit ~wall:0.5 "b.sml") with Profile.up_imports = [ ("a.sml", "") ] }
  in
  let c =
    { (mk_unit ~wall:0.1 "c.sml") with Profile.up_imports = [ ("a.sml", "") ] }
  in
  let build = mk_build ~wall:1.0 ~jobs:2 ~busy:[ 0.6; 0.2 ] [ a; b; c ] in
  Alcotest.(check (list string))
    "critical path is the heaviest chain, dependency first"
    [ "a.sml"; "b.sml" ]
    (List.map (fun u -> u.Profile.up_unit) (Profile.critical_path build));
  (match Profile.efficiency build with
  | Some e -> Alcotest.(check (float 1e-9)) "busy over jobs*wall" 0.4 e
  | None -> Alcotest.fail "efficiency missing");
  Alcotest.(check bool) "zero-wall build has no efficiency" true
    (Profile.efficiency (mk_build ~wall:0. [ a ]) = None)

(* ------------------------------------------------------------------ *)
(* Driver attribution                                                  *)
(* ------------------------------------------------------------------ *)

let write_chain fs =
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 10 fun scale n = n * origin end";
  fs.Vfs.fs_write "mid.sml" "structure Mid = struct val v = Base.scale 2 end";
  fs.Vfs.fs_write "top.sml"
    "structure Top = struct val result = Mid.v + Base.origin end";
  [ "base.sml"; "mid.sml"; "top.sml" ]

let causes_of stats =
  List.map
    (fun (f, c) -> (f, Driver.cause_name c, Driver.cause_culprits c))
    stats.Driver.st_causes

let test_first_build_causes () =
  let fs = Vfs.memory () in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list (triple string string (list string))))
    "every unit is a first build"
    [
      ("base.sml", "first-build", []);
      ("mid.sml", "first-build", []);
      ("top.sml", "first-build", []);
    ]
    (causes_of stats)

let test_comment_edit_attribution () =
  let fs = Vfs.memory () in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 10 fun scale n = n * origin end (* touched *)";
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list (triple string string (list string))))
    "under cutoff only the edited unit is stale"
    [ ("base.sml", "source-changed", []) ]
    (causes_of stats);
  Alcotest.(check string) "and it was a cutoff hit" "cutoff"
    (Driver.outcome_of stats "base.sml")

let test_interface_edit_culprits () =
  let fs = Vfs.memory () in
  let mgr = Driver.create fs in
  (* a diamond: both mids import base, top imports both mids *)
  fs.Vfs.fs_write "base.sml" "structure Base = struct val origin = 10 end";
  fs.Vfs.fs_write "mid1.sml" "structure Mid1 = struct val a = Base.origin end";
  fs.Vfs.fs_write "mid2.sml"
    "structure Mid2 = struct val b = Base.origin + 1 end";
  fs.Vfs.fs_write "top.sml"
    "structure Top = struct val r = Mid1.a + Mid2.b end";
  let sources = [ "base.sml"; "mid1.sml"; "mid2.sml"; "top.sml" ] in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  (* a new export changes base's interface pid; the mids' own
     interfaces stay the same, so the cascade stops there *)
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 10 val extra = 1 end";
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list (triple string string (list string))))
    "direct importers blame base, top is untouched"
    [
      ("base.sml", "source-changed", []);
      ("mid1.sml", "import-pid-changed", [ "base.sml" ]);
      ("mid2.sml", "import-pid-changed", [ "base.sml" ]);
    ]
    (causes_of stats);
  Alcotest.(check string) "top stays loaded" "loaded"
    (Driver.outcome_of stats "top.sml")

let test_timestamp_cascade_forced () =
  let fs = Vfs.memory () in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let _ = Driver.build mgr ~policy:Driver.Timestamp ~sources in
  Vfs.touch fs "base.sml";
  let stats = Driver.build mgr ~policy:Driver.Timestamp ~sources in
  Alcotest.(check (list (triple string string (list string))))
    "the whole cone recompiles; dependents are forced, not blamed"
    [
      ("base.sml", "source-changed", []);
      ("mid.sml", "forced", [ "base.sml" ]);
      ("top.sml", "forced", [ "base.sml"; "mid.sml" ]);
    ]
    (causes_of stats);
  List.iter
    (fun (f, c) ->
      if f <> "base.sml" then
        Alcotest.(check (option string))
          (f ^ " forced reason") (Some "timestamp-cascade")
          (Driver.cause_detail c))
    stats.Driver.st_causes

let test_evicted_vs_first_build () =
  let fs = Vfs.memory () in
  let profile = Profile.load fs in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let _ = Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources in
  fs.Vfs.fs_remove "mid.sml.bin";
  let stats = Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list (triple string string (list string))))
    "a deleted bin of a known unit is evicted, not first-build"
    [ ("mid.sml", "evicted", []) ]
    (causes_of stats);
  (* without a store there is no memory of the unit *)
  let fs2 = Vfs.memory () in
  let mgr2 = Driver.create fs2 in
  let sources2 = write_chain fs2 in
  let _ = Driver.build mgr2 ~policy:Driver.Cutoff ~sources:sources2 in
  fs2.Vfs.fs_remove "mid.sml.bin";
  let stats2 = Driver.build mgr2 ~policy:Driver.Cutoff ~sources:sources2 in
  Alcotest.(check (list (triple string string (list string))))
    "profile-less rebuild can only call it a first build"
    [ ("mid.sml", "first-build", []) ]
    (causes_of stats2)

let test_corrupt_entry_cause () =
  let fs = Vfs.memory () in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  fs.Vfs.fs_write "mid.sml.bin" "garbage, not a bin file";
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list (triple string string (list string))))
    "a bin that fails to rehydrate is corrupt-entry"
    [ ("mid.sml", "corrupt-entry", []) ]
    (causes_of stats)

let test_slot_stats () =
  let fs = Vfs.memory () in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check int) "serial build uses one slot" 1 stats.Driver.st_jobs;
  Alcotest.(check int) "one busy figure per slot" 1
    (List.length stats.Driver.st_slot_busy_s);
  List.iter
    (fun b ->
      Alcotest.(check bool) "busy time is non-negative" true (b >= 0.);
      Alcotest.(check bool) "busy time is bounded by wall" true
        (b <= stats.Driver.st_wall_s +. 0.001))
    stats.Driver.st_slot_busy_s;
  Alcotest.(check bool) "build ids are distinct" true
    (stats.Driver.st_build_id
    <> (Driver.build mgr ~policy:Driver.Cutoff ~sources).Driver.st_build_id)

let test_driver_records_profile () =
  let fs = Vfs.memory () in
  let profile = Profile.load fs in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let stats = Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources in
  let b =
    match Profile.last (Profile.load fs) with
    | Some b -> b
    | None -> Alcotest.fail "build not recorded"
  in
  Alcotest.(check int) "stats and store agree on the id"
    stats.Driver.st_build_id b.Profile.bp_id;
  Alcotest.(check string) "policy recorded" "cutoff" b.Profile.bp_policy;
  Alcotest.(check (list string))
    "units in build order" stats.Driver.st_order
    (List.map (fun u -> u.Profile.up_unit) b.Profile.bp_units);
  let top = List.nth b.Profile.bp_units 2 in
  Alcotest.(check (option string))
    "cause recorded" (Some "first-build") top.Profile.up_cause;
  Alcotest.(check bool) "phase durations recorded" true
    (List.mem_assoc "parse" top.Profile.up_phases
    && List.mem_assoc "elaborate" top.Profile.up_phases);
  Alcotest.(check (list string))
    "imports recorded with pids"
    [ "base.sml"; "mid.sml" ]
    (List.map fst top.Profile.up_imports |> List.sort String.compare);
  List.iter
    (fun (_, pid) ->
      Alcotest.(check bool) "import pid is hex" true (String.length pid = 32))
    top.Profile.up_imports

let test_schedule_recorded_and_degrades () =
  (* a critical-path build stamps the profile with its schedule and the
     per-unit priorities it ranked by; on a cold store the chain
     base <- mid <- top gets the 1s-per-unit default estimate, so the
     priorities are exactly the chain depths *)
  let fs = Vfs.memory () in
  let profile = Profile.load fs in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let stats =
    Driver.build ~profile ~backend:(Driver.Parallel 2)
      ~schedule:Driver.Critical_path mgr ~policy:Driver.Cutoff ~sources
  in
  Alcotest.(check string) "stats carry the schedule" "critical-path"
    (Driver.schedule_name stats.Driver.st_schedule);
  let b =
    match Profile.last profile with
    | Some b -> b
    | None -> Alcotest.fail "build not recorded"
  in
  Alcotest.(check string) "schedule recorded" "critical-path"
    b.Profile.bp_schedule;
  let prio build name =
    match Profile.find_unit build name with
    | Some u -> u.Profile.up_priority
    | None -> Alcotest.fail (name ^ " missing from the profile")
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check (float 1e-9))
        ("cold chain priority of " ^ name)
        expected (prio b name))
    [ ("base.sml", 3.0); ("mid.sml", 2.0); ("top.sml", 1.0) ];
  (* a vandalised store never stops the schedule: estimates fall back
     to the cold default and the rebuild succeeds as usual *)
  List.iter fs.Vfs.fs_remove (store_files fs);
  fs.Vfs.fs_write (store_path "store") "garbage";
  let profile' = Profile.load fs in
  Alcotest.(check int) "store is gone" 0 (List.length (Profile.builds profile'));
  List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources;
  let mgr' = Driver.create fs in
  let stats' =
    Driver.build ~profile:profile' ~backend:(Driver.Parallel 2)
      ~schedule:Driver.Critical_path mgr' ~policy:Driver.Cutoff ~sources
  in
  Alcotest.(check int) "damaged store: full rebuild still runs" 3
    (List.length stats'.Driver.st_recompiled);
  (match Profile.last profile' with
  | Some b' ->
    Alcotest.(check (float 1e-9))
      "damaged store: priorities degrade to depth" 3.0 (prio b' "base.sml")
  | None -> Alcotest.fail "rebuild not recorded");
  (* and the wavefront records the neutral stamp: no priorities *)
  List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources;
  let mgr'' = Driver.create fs in
  let stats'' =
    Driver.build ~profile:profile' ~backend:(Driver.Parallel 2)
      ~schedule:Driver.Wavefront mgr'' ~policy:Driver.Cutoff ~sources
  in
  Alcotest.(check string) "wavefront stamped" "wavefront"
    (Driver.schedule_name stats''.Driver.st_schedule);
  match Profile.last profile' with
  | Some b'' ->
    List.iter
      (fun name ->
        Alcotest.(check (float 1e-9))
          ("wavefront priority of " ^ name)
          0. (prio b'' name))
      sources
  | None -> Alcotest.fail "wavefront build not recorded"

let test_skipped_culprit_recorded () =
  let fs = Vfs.memory () in
  let profile = Profile.load fs in
  let mgr = Driver.create fs in
  fs.Vfs.fs_write "base.sml" "structure Base = struct val x = nope end";
  fs.Vfs.fs_write "top.sml" "structure Top = struct val y = Base.x end";
  let sources = [ "base.sml"; "top.sml" ] in
  let stats =
    Driver.build ~profile ~keep_going:true mgr ~policy:Driver.Cutoff ~sources
  in
  Alcotest.(check (list (pair string string)))
    "top skipped, blaming base"
    [ ("top.sml", "base.sml") ]
    stats.Driver.st_skipped;
  let b =
    match Profile.last profile with
    | Some b -> b
    | None -> Alcotest.fail "build not recorded"
  in
  match Profile.find_unit b "top.sml" with
  | Some u ->
    Alcotest.(check string) "outcome skipped" "skipped" u.Profile.up_outcome;
    Alcotest.(check (list string))
      "culprit is the failed root" [ "base.sml" ] u.Profile.up_culprits
  | None -> Alcotest.fail "skipped unit not in the profile"

(* ------------------------------------------------------------------ *)
(* Attribution exactness on random DAGs                                *)
(* ------------------------------------------------------------------ *)

(* a random DAG over units u0..u(n-1): unit i may reference any earlier
   unit; sources are derived from the edge list, so the scanner
   reconstructs exactly this DAG *)
let dag_gen =
  QCheck.Gen.(
    sized_size (int_range 3 7) (fun n ->
        let* edges =
          flatten_l
            (List.init n (fun i ->
                 let* deps =
                   flatten_l
                     (List.init i (fun j ->
                          let* b = bool in
                          return (if b then Some j else None)))
                 in
                 return (List.filter_map Fun.id deps)))
        in
        let* edited = int_range 0 (n - 1) in
        return (n, edges, edited)))

let dag_arb =
  QCheck.make dag_gen ~print:(fun (n, edges, edited) ->
      Printf.sprintf "n=%d edited=%d edges=%s" n edited
        (String.concat ";"
           (List.mapi
              (fun i ds ->
                Printf.sprintf "%d<-[%s]" i
                  (String.concat "," (List.map string_of_int ds)))
              edges)))

let unit_file i = Printf.sprintf "u%d.sml" i

let dag_source ?(iface_extra = false) ?(comment = false) i deps =
  let refs =
    match deps with
    | [] -> "1"
    | deps ->
      String.concat " + " (List.map (fun j -> Printf.sprintf "U%d.x" j) deps)
  in
  Printf.sprintf "structure U%d = struct val x = %s + %d %s end %s" i refs i
    (if iface_extra then "val y = 0" else "")
    (if comment then "(* touched *)" else "")

let write_dag fs edges =
  List.iteri (fun i deps -> fs.Vfs.fs_write (unit_file i) (dag_source i deps))
    edges

(* rewrite only the edited unit: the memory fs's logical clock treats
   every write as a touch, even a byte-identical one *)
let edit_dag fs edges ~edited ~iface_extra ~comment =
  let deps = List.nth edges edited in
  fs.Vfs.fs_write (unit_file edited)
    (dag_source ~iface_extra ~comment edited deps)

let prop_comment_edit_exact =
  QCheck.Test.make ~name:"comment edit: only the edited unit is stale"
    ~count:30 dag_arb (fun (n, edges, edited) ->
      ignore n;
      let fs = Vfs.memory () in
      let mgr = Driver.create fs in
      let sources = List.mapi (fun i _ -> unit_file i) edges in
      write_dag fs edges;
      let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      edit_dag fs edges ~edited ~iface_extra:false ~comment:true;
      let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      causes_of stats = [ (unit_file edited, "source-changed", []) ])

let prop_interface_edit_exact =
  QCheck.Test.make
    ~name:"interface edit: direct importers blame exactly the edited unit"
    ~count:30 dag_arb (fun (n, edges, edited) ->
      ignore n;
      let fs = Vfs.memory () in
      let mgr = Driver.create fs in
      let sources = List.mapi (fun i _ -> unit_file i) edges in
      write_dag fs edges;
      let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      edit_dag fs edges ~edited ~iface_extra:true ~comment:false;
      let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      let want =
        List.mapi (fun i deps -> (i, deps)) edges
        |> List.filter_map (fun (i, deps) ->
               if i = edited then
                 Some (unit_file i, "source-changed", [])
               else if List.mem edited deps then
                 Some (unit_file i, "import-pid-changed", [ unit_file edited ])
               else None)
      in
      causes_of stats = want)

(* ------------------------------------------------------------------ *)
(* Store bytes = the whole-state oracle                                *)
(* ------------------------------------------------------------------ *)

(* a seeded build: names and causes that need JSON escaping, floats of
   every magnitude (integral ones too), imports with hex pids *)
let seeded_build rs ~id =
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let names = [| "a.sml"; "b.sml"; "dir/c.sml"; "quote\"d.sml"; "tab\te\\.sml" |] in
  let floats = [| 0.; 1.; 2.5; -3.; 1e-7; 0.1; 123456789012345.; 1e300 |] in
  let num () =
    if Random.State.bool rs then pick floats else Random.State.float rs 4.
  in
  let unit_ _ =
    {
      Profile.up_unit = pick names;
      up_outcome =
        pick [| "recompiled"; "cutoff"; "cache"; "loaded"; "failed"; "skipped" |];
      up_cause =
        (if Random.State.bool rs then None
         else Some (pick [| "source-changed"; "import-pid-changed"; "first\nbuild" |]));
      up_culprits = List.init (Random.State.int rs 3) (fun _ -> pick names);
      up_start_s = num ();
      up_wall_s = num ();
      up_phases =
        List.filter (fun _ -> Random.State.bool rs)
          [ ("parse", num ()); ("elaborate", num ()); ("pickle", num ()) ];
      up_imports =
        List.init (Random.State.int rs 3) (fun _ ->
            ( pick names,
              if Random.State.int rs 4 = 0 then ""
              else Digestkit.Md5.hex (Digestkit.Md5.digest_string (pick names)) ));
      up_priority = num ();
    }
  in
  {
    Profile.bp_id = id;
    bp_policy = pick [| "cutoff"; "selective"; "timestamp" |];
    bp_backend = pick [| "serial"; "parallel" |];
    bp_wall_s = num ();
    bp_jobs = 1 + Random.State.int rs 4;
    bp_slot_busy_s = List.init (Random.State.int rs 3) (fun _ -> num ());
    bp_schedule = pick [| "wavefront"; "critical-path" |];
    bp_units = List.init (Random.State.int rs 5) unit_;
  }

(* [marker] ends the [aggregates] member that opens a snapshot line *)
let aggregates_member ~marker snapshot =
  let line = List.hd (String.split_on_char '\n' snapshot) in
  let opening = "{\"aggregates\":" in
  let rec find i =
    if i + String.length marker > String.length line then
      Alcotest.failf "no %s in the snapshot" marker
    else if String.sub line i (String.length marker) = marker then i
    else find (i + 1)
  in
  if not (String.starts_with ~prefix:opening line) then
    Alcotest.fail "the snapshot does not open with its aggregates";
  let stop = find (String.length opening) in
  String.sub line (String.length opening) (stop - String.length opening)

(* the store and the oracle read back the same state: builds (ids,
   order, fields) and aggregates.  Floats print so that they read back
   exactly, so a store that re-rolls records over a reloaded snapshot
   agrees exactly with one that rolled them before its snapshot *)
let same_state ~what p o =
  Alcotest.(check (list int)) (what ^ ": build ids")
    (List.map (fun b -> b.Profile.bp_id) (Oracle_profile.builds o))
    (List.map (fun b -> b.Profile.bp_id) (Profile.builds p));
  Alcotest.(check bool) (what ^ ": builds") true
    (Profile.builds p = Oracle_profile.builds o);
  Alcotest.(check int) (what ^ ": next id") o.Oracle_profile.next_id
    (Profile.next_id p);
  Hashtbl.iter
    (fun u a ->
      Alcotest.(check bool) (Printf.sprintf "%s: aggregate %s" what u) true
        (match Profile.aggregate p u with
        | Some b -> a = b
        | None -> false))
    o.Oracle_profile.aggregates

(* the oracle's emitter on the store's aggregates, for the units the
   oracle knows *)
let oracle_aggregates p o =
  Oracle_profile.Emit.to_canonical_string
    (Obs.Json.Obj
       (Hashtbl.fold (fun u _ acc -> u :: acc) o.Oracle_profile.aggregates []
       |> List.sort String.compare
       |> List.map (fun u ->
              match Profile.aggregate p u with
              | Some a -> (u, Oracle_profile.agg_json a)
              | None -> Alcotest.failf "aggregate %s missing" u)))

let test_store_bytes_match_oracle () =
  let rs = Random.State.make [| 25 |] in
  let fs = Vfs.memory () and ofs = Vfs.memory () in
  let p = ref (Profile.load fs) and o = ref (Oracle_profile.load ofs) in
  (* the segment the store's next record is committed as *)
  let seg = ref 1 in
  let compactions = ref 0 in
  let snapshot = ref None in
  let reloaded = ref false in
  let reload what =
    p := Profile.load fs;
    o := Oracle_profile.load ofs;
    reloaded := true;
    same_state ~what:(what ^ ", reloaded") !p !o
  in
  (* the record just made: its segment holds the oracle journal's last
     line; a compaction it made snapshots the oracle's aggregates *)
  let check_record what b =
    Alcotest.(check (option string)) (what ^ ": segment")
      (Some (Oracle_profile.record_line b ^ "\n"))
      (fs.Vfs.fs_read (segment !seg));
    incr seg;
    same_state ~what !p !o;
    let now = fs.Vfs.fs_read (store_path "store") in
    if now <> !snapshot then begin
      incr compactions;
      snapshot := now;
      let body =
        match now with
        | Some s -> (
          match String.index_opt s '\n' with
          | Some nl -> String.sub s (nl + 1) (String.length s - nl - 1)
          | None -> Alcotest.failf "%s: a snapshot without a header" what)
        | None -> Alcotest.failf "%s: the snapshot is gone" what
      in
      (* before any reload the state is the oracle's own, and so is
         its snapshot's aggregates member; after, the store's state in
         the oracle's emitter *)
      Alcotest.(check string) (what ^ ": snapshot aggregates")
        (if not !reloaded then
           aggregates_member ~marker:",\"builds\":["
             (Oracle_profile.snapshot_content !o)
         else oracle_aggregates !p !o)
        (aggregates_member ~marker:",\"next_id\":" body);
      Alcotest.(check bool) (what ^ ": snapshot next id") true
        (String.ends_with
           ~suffix:(Printf.sprintf ",\"next_id\":%d,\"version\":\"smlsep-profile-store/1\"}"
                      (Profile.next_id !p))
           (List.hd (String.split_on_char '\n' body)))
    end
  in
  let record_n what n =
    for i = 1 to n do
      let b = seeded_build rs ~id:(Profile.next_id !p) in
      Profile.record !p b;
      Oracle_profile.record !o b;
      check_record (Printf.sprintf "%s, record %d" what i) b
    done
  in
  (* several compactions from an empty store *)
  record_n "fresh" 45;
  Alcotest.(check int) "compacted into a snapshot" 3 !compactions;
  (* a reload reads every retained build back *)
  reload "fresh";
  record_n "after reload" 20;
  (* a torn record is dropped on reload, and the next one does not land
     on it *)
  let torn = "deadbeef {\"torn\":" in
  fs.Vfs.fs_write (segment !seg) torn;
  incr seg;
  ofs.Vfs.fs_write (Filename.concat Profile.default_dir "journal")
    (!o.Oracle_profile.journal ^ torn);
  reload "a torn record";
  record_n "after a torn record" 12;
  (* an old record (no priority, an extra field) is re-read in today's
     form *)
  let old_id = Profile.next_id !p in
  let old_body =
    "{\"backend\":\"serial\",\"id\":" ^ string_of_int old_id
    ^ ",\"jobs\":1,\"policy\":\"cutoff\",\"slot_busy_s\":[],\
     \"static_releases\":2,\"units\":[{\"culprits\":[],\"imports\":{},\
     \"name\":\"a.sml\",\"outcome\":\"recompiled\",\"phases\":{},\
     \"start_s\":0,\"wall_s\":0.5,\"cause\":null}],\"wall_s\":1}"
  in
  let old_line =
    Printf.sprintf "%Lx %s\n" (Digestkit.Crc64.of_string old_body) old_body
  in
  fs.Vfs.fs_write (segment !seg) old_line;
  incr seg;
  ofs.Vfs.fs_write (Filename.concat Profile.default_dir "journal")
    (!o.Oracle_profile.journal ^ old_line);
  reload "an old record";
  Alcotest.(check bool) "old record read back" true
    (match Profile.last !p with
    | Some b -> b.Profile.bp_id = old_id && b.Profile.bp_schedule = "wavefront"
    | None -> false);
  record_n "after an old record" 12;
  (* a build a signal interrupted records the units that finished *)
  let src = Vfs.memory () in
  List.iter
    (fun (f, s) -> src.Vfs.fs_write f s)
    [
      ("base.sml", "structure Base = struct val x = 1 end");
      ("mid.sml", "structure Mid = struct val y = Base.x + 1 end");
      ("top.sml", "structure Top = struct val z = Mid.y + 1 end");
    ];
  let sources = [ "base.sml"; "mid.sml"; "top.sml" ] in
  let interrupting =
    {
      src with
      Vfs.fs_write =
        (fun path data ->
          if String.starts_with ~prefix:"mid.sml.bin" path then
            raise (Driver.Interrupted "test");
          src.Vfs.fs_write path data);
    }
  in
  (match
     Driver.build ~profile:!p (Driver.create interrupting) ~policy:Driver.Cutoff
       ~sources
   with
  | _ -> Alcotest.fail "the build must be interrupted"
  | exception Driver.Interrupted _ -> ());
  let replay_last what =
    match Profile.last !p with
    | Some b ->
      Oracle_profile.record !o b;
      check_record what b
    | None -> Alcotest.fail "no build recorded"
  in
  replay_last "interrupted build";
  Alcotest.(check int) "partial record" 1
    (match Profile.last !p with Some b -> List.length b.Profile.bp_units | None -> 0);
  ignore (Driver.build ~profile:!p (Driver.create src) ~policy:Driver.Cutoff ~sources);
  replay_last "full build";
  record_n "to the next compaction" 9;
  reload "the end";
  (* a store the oracle wrote, the legacy format, loads as the state
     the oracle reads back *)
  same_state ~what:"oracle-written" (Profile.load ofs) (Oracle_profile.load ofs)

(* ------------------------------------------------------------------ *)
(* Metrics dump determinism                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_pp_deterministic () =
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "zdet.b") 2;
  Obs.Metrics.add (Obs.Metrics.counter "zdet.a") 1;
  let once = Format.asprintf "%a" Obs.Metrics.pp () in
  let twice = Format.asprintf "%a" Obs.Metrics.pp () in
  Alcotest.(check string) "same registry, same dump" once twice;
  let ia =
    match String.index_opt once 'z' with Some i -> i | None -> -1
  in
  Alcotest.(check bool) "counters present" true (ia >= 0);
  (* names are sorted, so zdet.a renders before zdet.b *)
  let find s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then -1
      else if String.sub s i m = sub then i else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "dump is name-sorted" true
    (find once "zdet.a" < find once "zdet.b")

(* a reloaded store counts the segments it found, so it compacts at
   the same record as a store that was never reloaded *)
let test_reload_compacts_at_the_same_record () =
  let files fs = List.map (fun f -> (f, fs.Vfs.fs_read f)) (store_files fs) in
  let fs_a = Vfs.memory () and fs_b = Vfs.memory () in
  let a = ref (Profile.load fs_a) and b = Profile.load fs_b in
  for id = 1 to 40 do
    if id = 4 || id = 30 then a := Profile.load fs_a;
    let build = mk_build ~id [ mk_unit "a.sml" ] in
    Profile.record !a build;
    Profile.record b build;
    Alcotest.(check (list (pair string (option string))))
      (Printf.sprintf "store files after build %d" id)
      (files fs_b) (files fs_a)
  done

(* a compaction that committed the snapshot but could not remove the
   segments below its head leaves records the snapshot already holds:
   reloading must not apply them twice, and the next compaction removes
   them *)
let test_interrupted_compaction_replays_once () =
  let fs = Vfs.memory () in
  let ffs, _ =
    Vfs.faulty
      ~only:(String.starts_with ~prefix:(store_path "journal."))
      ~plan:[ Vfs.Remove_fail 1 ] fs
  in
  let p = Profile.load ffs in
  (match
     for id = 1 to 25 do
       Profile.record p (mk_build ~id [ mk_unit "a.sml" ])
     done
   with
  | () -> Alcotest.fail "the compaction's segment removal must fail"
  | exception Vfs.Fault _ -> ());
  Alcotest.(check bool) "the retired segments are still there" true
    (fs.Vfs.fs_read (segment 1) <> None);
  let p = Profile.load fs in
  Alcotest.(check (list int)) "each build once" (List.init 16 (fun i -> i + 10))
    (List.map (fun b -> b.Profile.bp_id) (Profile.builds p));
  Alcotest.(check int) "next id" 26 (Profile.next_id p);
  Alcotest.(check (option int)) "compiles aggregated once" (Some 25)
    (Option.map (fun a -> a.Profile.ag_builds) (Profile.aggregate p "a.sml"));
  for id = 26 to 34 do
    Profile.record p (mk_build ~id [ mk_unit "a.sml" ])
  done;
  Alcotest.(check (list string)) "the next compaction removes the orphans"
    (List.init 16 (fun i -> segment (i + 19)))
    (List.sort compare (live_segments fs))

(* One write per record: a 61-unit build recorded 40 times writes one
   new segment per record, holding only its own line; a compaction
   writes only the aggregates snapshot *)
let test_one_write_per_record () =
  let fs = Vfs.memory () in
  let writes = ref [] in
  let counting =
    {
      fs with
      Vfs.fs_write =
        (fun path content ->
          writes := (path, content) :: !writes;
          fs.Vfs.fs_write path content);
    }
  in
  let build id =
    mk_build ~id ~wall:(float_of_int id)
      (List.init 61 (fun i ->
           mk_unit ~wall:(0.001 *. float_of_int (i + id))
             ~phases:[ ("parse", 0.0001); ("elaborate", 0.0002) ]
             (Printf.sprintf "unit%02d.sml" i)))
  in
  let p = Profile.load counting in
  let lines = ref [] in
  let compactions = ref 0 in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  for id = 1 to 40 do
    writes := [];
    let b = build id in
    Alcotest.(check (option string)) "a new segment" None
      (fs.Vfs.fs_read (segment id));
    Profile.record p b;
    let line = Oracle_profile.record_line b in
    (match List.rev !writes with
    | (seg, content) :: rest ->
      Alcotest.(check string) "one segment write" (Vfs.commit_path (segment id)) seg;
      Alcotest.(check string) "it holds only its own line" (line ^ "\n") content;
      List.iter
        (fun (path, snapshot) ->
          incr compactions;
          Alcotest.(check string) "a compaction writes the snapshot"
            (Vfs.commit_path (store_path "store")) path;
          Alcotest.(check bool) "only the aggregates" false
            (contains snapshot "\"units\":"))
        rest;
      List.iter
        (fun earlier ->
          if List.exists (fun (_, c) -> contains c earlier) !writes then
            Alcotest.failf "record %d rewrote an earlier build" id)
        !lines
    | [] -> Alcotest.failf "record %d wrote nothing" id);
    lines := line :: !lines;
    let live = List.length (live_segments fs) in
    if live > 24 then Alcotest.failf "%d live segments after record %d" live id
  done;
  Alcotest.(check int) "compactions" 2 !compactions

(* ------------------------------------------------------------------ *)
(* Stores in the legacy format                                         *)
(* ------------------------------------------------------------------ *)

(* a journal written before segments, whose last line was torn: the
   torn piece is dropped, and the next record is not lost on it *)
let test_torn_legacy_journal () =
  let fs = Vfs.memory () in
  let o = Oracle_profile.load fs in
  Oracle_profile.record o (mk_build ~id:1 [ mk_unit "a.sml" ]);
  Oracle_profile.record o (mk_build ~id:2 [ mk_unit "a.sml" ]);
  let journal = store_path "journal" in
  fs.Vfs.fs_write journal
    (Option.get (fs.Vfs.fs_read journal) ^ "deadbeef {\"torn\":");
  let p = Profile.load fs in
  Profile.record p (mk_build ~id:(Profile.next_id p) [ mk_unit "a.sml" ]);
  Alcotest.(check (list int)) "the new build survives a reload" [ 1; 2; 3 ]
    (List.map (fun b -> b.Profile.bp_id) (Profile.builds (Profile.load fs)))

(* a snapshot and journal in the legacy format, by hand: a snapshot
   holding builds 1 and 2, and a journal left by a compaction that did
   not remove it (build 2 again) plus build 3 *)
let test_legacy_format_loads () =
  let fs = Vfs.memory () in
  let build id wall parse =
    Printf.sprintf
      "{\"backend\":\"serial\",\"id\":%d,\"jobs\":1,\"policy\":\"cutoff\",\
       \"schedule\":\"wavefront\",\"slot_busy_s\":[0.5],\"units\":[{\"cause\":null,\
       \"culprits\":[],\"imports\":{},\"name\":\"a.sml\",\"outcome\":\"recompiled\",\
       \"phases\":{\"parse\":%s},\"priority\":0,\"start_s\":0,\"wall_s\":%s}],\
       \"wall_s\":1}"
      id parse wall
  in
  let crc s = Printf.sprintf "%Lx" (Digestkit.Crc64.of_string s) in
  let snapshot =
    "{\"aggregates\":{\"a.sml\":{\"builds\":2,\"ewma_s\":1.3,\"last_s\":2,\
     \"max_s\":2,\"phases\":{\"parse\":0.8}}},\"builds\":["
    ^ build 1 "1" "0.5" ^ "," ^ build 2 "2" "1.5"
    ^ "],\"next_id\":3,\"version\":\"smlsep-profile-store/1\"}"
  in
  fs.Vfs.fs_write (store_path "store") (snapshot ^ "\n" ^ crc snapshot ^ "\n");
  let line b = crc b ^ " " ^ b ^ "\n" in
  fs.Vfs.fs_write (store_path "journal")
    (line (build 2 "2" "1.5") ^ line (build 3 "0.5" "0.2"));
  let check what p ~ids ~next ~compiles =
    Alcotest.(check (list int)) (what ^ ": builds") ids
      (List.map (fun b -> b.Profile.bp_id) (Profile.builds p));
    Alcotest.(check int) (what ^ ": next id") next (Profile.next_id p);
    Alcotest.(check (option int)) (what ^ ": compiles") (Some compiles)
      (Option.map (fun a -> a.Profile.ag_builds) (Profile.aggregate p "a.sml"))
  in
  let p = Profile.load fs in
  check "legacy files" p ~ids:[ 1; 2; 3 ] ~next:4 ~compiles:3;
  (match Profile.aggregate p "a.sml" with
  | Some a ->
    Alcotest.(check (float 1e-9)) "ewma" 1.06 a.Profile.ag_ewma_s;
    Alcotest.(check (float 1e-9)) "max" 2. a.Profile.ag_max_s;
    Alcotest.(check (float 1e-9)) "last" 0.5 a.Profile.ag_last_s;
    Alcotest.(check (float 1e-9)) "phase" 0.62 (List.assoc "parse" a.Profile.ag_phases)
  | None -> Alcotest.fail "no aggregate");
  (match Profile.builds p with
  | b :: _ ->
    Alcotest.(check (list (float 1e-9))) "fields" [ 0.5 ] b.Profile.bp_slot_busy_s
  | [] -> ());
  for id = 4 to 28 do
    Profile.record p (mk_build ~id [ mk_unit "a.sml" ])
  done;
  Alcotest.(check (option string)) "the compaction removed the legacy journal"
    None (fs.Vfs.fs_read (store_path "journal"));
  check "converted" (Profile.load fs)
    ~ids:(List.init 16 (fun i -> i + 13))
    ~next:29 ~compiles:28

(* ------------------------------------------------------------------ *)
(* A build that compiled nothing is not recorded                       *)
(* ------------------------------------------------------------------ *)

(* every file of [fs] with its bytes, and the store's next id *)
let fs_state fs =
  ( List.map
      (fun f -> (f, fs.Vfs.fs_read f))
      (List.sort String.compare (fs.Vfs.fs_list ())),
    Profile.next_id (Profile.load fs) )

let check_fs_state what expected fs =
  Alcotest.(check (pair (list (pair string (option string))) int))
    what expected (fs_state fs)

let test_null_builds_write_nothing () =
  let fs = Vfs.memory () in
  let profile = Profile.load fs in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let _ = Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources in
  let before = fs_state fs in
  let next = Profile.next_id profile in
  for i = 1 to 20 do
    (* the warm manager a daemon keeps, and a one-shot's fresh manager
       over a freshly loaded store, in turn *)
    let profile, mgr =
      if i mod 2 = 0 then (profile, mgr) else (Profile.load fs, Driver.create fs)
    in
    let stats = Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources in
    Alcotest.(check int) "every unit loaded" 3 (List.length stats.Driver.st_loaded);
    Alcotest.(check int) "an unrecorded build carries the next id" next
      stats.Driver.st_build_id
  done;
  check_fs_state "twenty null builds leave the store byte-identical" before fs

let test_work_still_records () =
  let fs = Vfs.memory () in
  let profile = Profile.load fs in
  let cache = Cache.ops (Cache.create fs) in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  let _ = Driver.build ~profile ~cache mgr ~policy:Driver.Cutoff ~sources in
  (* [change ()], then a build: it is the store's next record, and
     [unit_] has [outcome] in it *)
  let records what ~unit_ ~outcome change =
    change ();
    let id = Profile.next_id profile in
    let stats =
      Driver.build ~profile ~cache ~keep_going:true mgr ~policy:Driver.Cutoff
        ~sources
    in
    Alcotest.(check int) (what ^ ": build id") id stats.Driver.st_build_id;
    match Profile.last (Profile.load fs) with
    | Some b when b.Profile.bp_id = id ->
      Alcotest.(check (option string))
        (what ^ ": outcome") (Some outcome)
        (Option.map
           (fun u -> u.Profile.up_outcome)
           (Profile.find_unit b unit_))
    | Some _ | None -> Alcotest.fail (what ^ ": build not recorded")
  in
  records "a cutoff hit" ~unit_:"base.sml" ~outcome:"cutoff" (fun () ->
      fs.Vfs.fs_write "base.sml"
        "structure Base = struct val origin = 10 fun scale n = n * origin end (* c *)");
  records "a recompile" ~unit_:"top.sml" ~outcome:"recompiled" (fun () ->
      fs.Vfs.fs_write "top.sml"
        "structure Top = struct val result = Mid.v + Base.origin val extra = 1 end");
  records "a cache hit" ~unit_:"mid.sml" ~outcome:"cache" (fun () ->
      fs.Vfs.fs_remove "mid.sml.bin");
  records "a failure" ~unit_:"top.sml" ~outcome:"failed" (fun () ->
      fs.Vfs.fs_write "top.sml" "structure Top = struct val result = nope end");
  records "a skip" ~unit_:"top.sml" ~outcome:"skipped" (fun () ->
      fs.Vfs.fs_write "top.sml"
        "structure Top = struct val result = Mid.v + Base.origin end";
      fs.Vfs.fs_write "mid.sml" "structure Mid = struct val v = nope end")

let test_unknown_unit_null_build_records () =
  let fs = Vfs.memory () in
  let mgr = Driver.create fs in
  let sources = write_chain fs in
  (* bins built without a store: a fresh store over them knows no unit *)
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  let profile = Profile.load fs in
  let stats = Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check int) "nothing compiled" 0
    (List.length stats.Driver.st_recompiled);
  (match Profile.last (Profile.load fs) with
  | Some b ->
    Alcotest.(check int) "recorded under its id" stats.Driver.st_build_id
      b.Profile.bp_id;
    Alcotest.(check (list string))
      "every unit recorded as loaded" [ "loaded"; "loaded"; "loaded" ]
      (List.map (fun u -> u.Profile.up_outcome) b.Profile.bp_units)
  | None -> Alcotest.fail "a null build over unknown units must record");
  (* now the store knows every unit, so the next null build is not
     recorded *)
  let before = fs_state fs in
  let _ = Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources in
  check_fs_state "the store, once it knows every unit, stays put" before fs

let test_explain_survives_null_builds () =
  let fs = Vfs.memory () in
  let profile = Profile.load fs in
  let mgr = Driver.create fs in
  fs.Vfs.fs_write "base.sml" "structure Base = struct val origin = 10 end";
  fs.Vfs.fs_write "mid1.sml" "structure Mid1 = struct val a = Base.origin end";
  fs.Vfs.fs_write "mid2.sml"
    "structure Mid2 = struct val b = Base.origin + 1 end";
  fs.Vfs.fs_write "top.sml"
    "structure Top = struct val r = Mid1.a + Mid2.b end";
  let sources = [ "base.sml"; "mid1.sml"; "mid2.sml"; "top.sml" ] in
  let build () = Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources in
  let _ = build () in
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 10 val extra = 1 end";
  let edit_id = (build ()).Driver.st_build_id in
  for _ = 1 to 3 do
    ignore (build ())
  done;
  let explain unit_ =
    let r = Irm.Introspect.explain (Profile.load fs) ~unit_name:unit_ ~json:true in
    Alcotest.(check int) (unit_ ^ ": explained") 0 r.Irm.Introspect.r_code;
    let j = Obs.Json.parse r.Irm.Introspect.r_out in
    let str k =
      match Obs.Json.member k j with
      | Some (Obs.Json.String s) -> s
      | _ -> Alcotest.fail (unit_ ^ ": no " ^ k)
    in
    ( (match Obs.Json.member "build" j with
      | Some (Obs.Json.Int n) -> n
      | _ -> Alcotest.fail (unit_ ^ ": no build")),
      str "cause",
      match Obs.Json.member "culprits" j with
      | Some (Obs.Json.List cs) ->
        List.map (function Obs.Json.String c -> c | _ -> "?") cs
      | _ -> Alcotest.fail (unit_ ^ ": no culprits") )
  in
  let expect = Alcotest.(triple int string (list string)) in
  Alcotest.check expect "the edited unit" (edit_id, "source-changed", [])
    (explain "base.sml");
  List.iter
    (fun mid ->
      Alcotest.check expect ("importer " ^ mid)
        (edit_id, "import-pid-changed", [ "base.sml" ])
        (explain mid))
    [ "mid1.sml"; "mid2.sml" ]

let suite =
  [
    Alcotest.test_case "store round-trips through snapshot+journal" `Quick
      test_store_roundtrip;
    Alcotest.test_case "ewma and max roll correctly" `Quick test_ewma_and_max;
    Alcotest.test_case "only compiles feed the aggregate" `Quick
      test_aggregate_only_fed_by_compiles;
    Alcotest.test_case "damaged store degrades to a prefix" `Quick
      test_damaged_store_degrades;
    Alcotest.test_case "old static_releases field loads" `Quick
      test_old_static_releases_field_loads;
    Alcotest.test_case "history is bounded, aggregates are not" `Quick
      test_history_is_bounded;
    Alcotest.test_case "critical path and efficiency" `Quick
      test_critical_path_and_efficiency;
    Alcotest.test_case "first build causes" `Quick test_first_build_causes;
    Alcotest.test_case "comment edit attribution" `Quick
      test_comment_edit_attribution;
    Alcotest.test_case "interface edit culprits" `Quick
      test_interface_edit_culprits;
    Alcotest.test_case "timestamp cascade is forced" `Quick
      test_timestamp_cascade_forced;
    Alcotest.test_case "evicted vs first-build" `Quick
      test_evicted_vs_first_build;
    Alcotest.test_case "corrupt entry cause" `Quick test_corrupt_entry_cause;
    Alcotest.test_case "slot stats" `Quick test_slot_stats;
    Alcotest.test_case "driver records the profile" `Quick
      test_driver_records_profile;
    Alcotest.test_case "schedule recorded, damaged store degrades" `Quick
      test_schedule_recorded_and_degrades;
    Alcotest.test_case "skipped culprit recorded" `Quick
      test_skipped_culprit_recorded;
    QCheck_alcotest.to_alcotest prop_comment_edit_exact;
    QCheck_alcotest.to_alcotest prop_interface_edit_exact;
    Alcotest.test_case "store bytes = whole-state oracle" `Quick
      test_store_bytes_match_oracle;
    Alcotest.test_case "metrics dump is deterministic" `Quick
      test_metrics_pp_deterministic;
    Alcotest.test_case "reloaded store compacts at the same record" `Quick
      test_reload_compacts_at_the_same_record;
    Alcotest.test_case "interrupted compaction replays once" `Quick
      test_interrupted_compaction_replays_once;
    Alcotest.test_case "one write per record" `Quick test_one_write_per_record;
    Alcotest.test_case "a torn legacy journal keeps the next record" `Quick
      test_torn_legacy_journal;
    Alcotest.test_case "legacy-format store loads and converts" `Quick
      test_legacy_format_loads;
    Alcotest.test_case "null builds write nothing" `Quick
      test_null_builds_write_nothing;
    Alcotest.test_case "a build that did work records" `Quick
      test_work_still_records;
    Alcotest.test_case "a null build over unknown units records" `Quick
      test_unknown_unit_null_build_records;
    Alcotest.test_case "explain survives null builds" `Quick
      test_explain_survives_null_builds;
  ]
