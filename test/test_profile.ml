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

let test_damaged_store_degrades () =
  let fs = Vfs.memory () in
  let p = Profile.load fs in
  Profile.record p (mk_build ~id:1 [ mk_unit "a.sml" ]);
  (* a valid journal record followed by a torn one: the valid prefix
     survives, the tail is dropped *)
  let jpath = Filename.concat Profile.default_dir "journal" in
  (match fs.Vfs.fs_read jpath with
  | Some j -> fs.Vfs.fs_write jpath (j ^ "deadbeef {\"torn\":")
  | None -> Alcotest.fail "journal missing after record");
  let p' = Profile.load fs in
  Alcotest.(check int) "valid prefix survives a torn journal" 1
    (List.length (Profile.builds p'));
  (* a corrupt snapshot is an empty store, never an error *)
  let spath = Filename.concat Profile.default_dir "store" in
  fs.Vfs.fs_write spath "not a snapshot at all";
  fs.Vfs.fs_remove jpath;
  let p'' = Profile.load fs in
  Alcotest.(check int) "corrupt snapshot loads as empty" 0
    (List.length (Profile.builds p''));
  Alcotest.(check bool) "and records fine afterwards" true
    (Profile.record p'' (mk_build ~id:1 [ mk_unit "a.sml" ]);
     List.length (Profile.builds (Profile.load fs)) = 1)

(* older builds wrote a [static_releases] count into every build
   record; such a journal line still loads, field for field *)
let test_old_static_releases_field_loads () =
  let fs = Vfs.memory () in
  let p = Profile.load fs in
  Profile.record p
    (mk_build ~id:1 ~schedule:"critical-path"
       [ mk_unit ~wall:0.2 "a.sml"; mk_unit ~outcome:"loaded" "b.sml" ]);
  let jpath = Filename.concat Profile.default_dir "journal" in
  let body =
    match fs.Vfs.fs_read jpath with
    | Some j -> (
      match String.index_opt j ' ' with
      | Some sp -> String.trim (String.sub j (sp + 1) (String.length j - sp - 1))
      | None -> Alcotest.fail "journal line has no CRC")
    | None -> Alcotest.fail "journal missing after record"
  in
  let old_body =
    "{\"static_releases\":2,"
    ^ String.sub body 1 (String.length body - 1)
  in
  fs.Vfs.fs_write jpath
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
  fs.Vfs.fs_write (Filename.concat Profile.default_dir "store") "garbage";
  fs.Vfs.fs_remove (Filename.concat Profile.default_dir "journal");
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

(* the store (on [fs]) and the oracle (on [ofs]) have written the same
   bytes, and read back the same state *)
let same_bytes ~what fs ofs =
  List.iter
    (fun name ->
      let path = Filename.concat Profile.default_dir name in
      Alcotest.(check (option string))
        (Printf.sprintf "%s: %s" what name)
        (ofs.Vfs.fs_read path) (fs.Vfs.fs_read path))
    [ "store"; "journal" ]

let test_store_bytes_match_oracle () =
  let rs = Random.State.make [| 25 |] in
  let fs = Vfs.memory () and ofs = Vfs.memory () in
  let p = ref (Profile.load fs) and o = ref (Oracle_profile.load ofs) in
  let reload () =
    p := Profile.load fs;
    o := Oracle_profile.load ofs
  in
  let record_n what n =
    for i = 1 to n do
      let b = seeded_build rs ~id:(Profile.next_id !p) in
      Profile.record !p b;
      Oracle_profile.record !o b;
      same_bytes ~what:(Printf.sprintf "%s, record %d" what i) fs ofs
    done
  in
  (* several compactions from an empty store *)
  record_n "fresh" 30;
  Alcotest.(check bool) "compacted into a snapshot" true
    (fs.Vfs.fs_read (Filename.concat Profile.default_dir "store") <> None);
  (* a reload reads every retained build back: the next compaction
     serializes their lines lazily *)
  reload ();
  record_n "after reload" 20;
  (* a torn journal tail is dropped on reload *)
  let jpath = Filename.concat Profile.default_dir "journal" in
  List.iter
    (fun fs ->
      let j = Option.value ~default:"" (fs.Vfs.fs_read jpath) in
      fs.Vfs.fs_write jpath (j ^ "deadbeef {\"torn\":"))
    [ fs; ofs ];
  reload ();
  record_n "after a torn journal" 12;
  (* an old journal record (no priority, an extra field) is re-read in
     today's form *)
  let old_id = Profile.next_id !p in
  let old_body =
    "{\"backend\":\"serial\",\"id\":" ^ string_of_int old_id
    ^ ",\"jobs\":1,\"policy\":\"cutoff\",\"slot_busy_s\":[],\
     \"static_releases\":2,\"units\":[{\"culprits\":[],\"imports\":{},\
     \"name\":\"a.sml\",\"outcome\":\"recompiled\",\"phases\":{},\
     \"start_s\":0,\"wall_s\":0.5,\"cause\":null}],\"wall_s\":1}"
  in
  List.iter
    (fun fs ->
      let j = Option.value ~default:"" (fs.Vfs.fs_read jpath) in
      fs.Vfs.fs_write jpath
        (Printf.sprintf "%s%Lx %s\n" j (Digestkit.Crc64.of_string old_body) old_body))
    [ fs; ofs ];
  reload ();
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
      same_bytes ~what fs ofs
    | None -> Alcotest.fail "no build recorded"
  in
  replay_last "interrupted build";
  Alcotest.(check int) "partial record" 1
    (match Profile.last !p with Some b -> List.length b.Profile.bp_units | None -> 0);
  ignore (Driver.build ~profile:!p (Driver.create src) ~policy:Driver.Cutoff ~sources);
  replay_last "full build";
  record_n "to the next compaction" 9;
  (* a store the oracle wrote loads as the state the oracle reads back *)
  let from_oracle = Profile.load ofs and oracle = Oracle_profile.load ofs in
  Alcotest.(check bool) "oracle-written builds load" true
    (Profile.builds from_oracle = Oracle_profile.builds oracle);
  Alcotest.(check int) "oracle-written next id" oracle.Oracle_profile.next_id
    (Profile.next_id from_oracle);
  Hashtbl.iter
    (fun u a ->
      Alcotest.(check bool) ("aggregate " ^ u) true
        (Profile.aggregate from_oracle u = Some a))
    oracle.Oracle_profile.aggregates

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

(* a store reloaded mid-journal counts the records it found, so it
   compacts at the same build as a store that was never reloaded *)
let test_reload_compacts_at_the_same_record () =
  let journal fs =
    fs.Vfs.fs_read (Filename.concat Profile.default_dir "journal")
  in
  let fs_a = Vfs.memory () and fs_b = Vfs.memory () in
  let a = ref (Profile.load fs_a) and b = Profile.load fs_b in
  for id = 1 to 20 do
    if id = 4 then a := Profile.load fs_a;
    let build = mk_build ~id [ mk_unit "a.sml" ] in
    Profile.record !a build;
    Profile.record b build;
    Alcotest.(check (option string))
      (Printf.sprintf "journal after build %d" id)
      (journal fs_b) (journal fs_a)
  done

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
  ]
