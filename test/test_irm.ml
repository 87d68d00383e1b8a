(* The Incremental Recompilation Manager: dependency analysis, the two
   build policies, and the cutoff-vs-timestamp behaviour the paper's
   evaluation is about. *)

module Driver = Irm.Driver
module Group = Irm.Group
module Scan = Depend.Scan
module Depgraph = Depend.Depgraph
module Value = Dynamics.Value
module Pid = Digestkit.Pid
module Diag = Support.Diag
module Symbol = Support.Symbol

(* A three-unit chain: base <- mid <- top *)
let base_src =
  "structure Base = struct val origin = 10 fun scale n = n * origin end"

let mid_src =
  "structure Mid = struct val v = Base.scale 2 end"

let top_src = "structure Top = struct val result = Mid.v + Base.origin end"

let setup sources =
  let fs = Vfs.memory () in
  List.iter (fun (path, src) -> fs.Vfs.fs_write path src) sources;
  (fs, Driver.create fs)

let chain () =
  setup [ ("base.sml", base_src); ("mid.sml", mid_src); ("top.sml", top_src) ]

let chain_sources = [ "top.sml"; "base.sml"; "mid.sml" ] (* unordered! *)

let names = List.map Filename.basename

let test_scan () =
  let summary = Scan.scan_source ~file:"m.sml" mid_src in
  Alcotest.(check (list string))
    "defines" [ "Mid" ]
    (List.map Symbol.name (Symbol.Set.elements summary.Scan.defines));
  Alcotest.(check (list string))
    "refers" [ "Base" ]
    (List.map Symbol.name (Symbol.Set.elements summary.Scan.refers))

let test_scan_ignores_locals () =
  let src =
    "structure A = struct\n\
     structure Inner = struct val x = 1 end\n\
     val y = Inner.x + External.z\n\
     end\n\
     functor F (Param : sig val v : int end) = struct val w = Param.v + \
     Other.k end"
  in
  let summary = Scan.scan_source ~file:"a.sml" src in
  Alcotest.(check (list string))
    "only free roots" [ "External"; "Other" ]
    (List.map Symbol.name (Symbol.Set.elements summary.Scan.refers))

let test_topological_order () =
  let _fs, mgr = chain () in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check (list string))
    "dependencies first"
    [ "base.sml"; "mid.sml"; "top.sml" ]
    stats.Driver.st_order

let test_initial_build_compiles_all () =
  let _fs, mgr = chain () in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check int) "all compiled" 3 (List.length stats.Driver.st_recompiled);
  Alcotest.(check int) "none loaded" 0 (List.length stats.Driver.st_loaded)

let test_null_build_loads_all () =
  let _fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check int) "nothing recompiled" 0
    (List.length stats.Driver.st_recompiled);
  Alcotest.(check int) "all loaded" 3 (List.length stats.Driver.st_loaded)

let test_timestamp_cascades_on_touch () =
  let fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Timestamp ~sources:chain_sources in
  Vfs.touch fs "base.sml";
  let stats = Driver.build mgr ~policy:Driver.Timestamp ~sources:chain_sources in
  (* classical make recompiles the whole cone *)
  Alcotest.(check (list string))
    "cascade" [ "base.sml"; "mid.sml"; "top.sml" ]
    (names stats.Driver.st_recompiled)

let test_cutoff_stops_cascade_on_touch () =
  let fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Vfs.touch fs "base.sml";
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  (* the interface pid is unchanged: only the touched unit recompiles *)
  Alcotest.(check (list string))
    "no cascade" [ "base.sml" ]
    (names stats.Driver.st_recompiled);
  Alcotest.(check (list string))
    "cutoff recorded" [ "base.sml" ]
    (names stats.Driver.st_cutoff_hits)

let test_cutoff_stops_cascade_on_impl_change () =
  let fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  (* change the implementation but not the interface *)
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 99 fun scale n = n + n * origin end";
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check (list string))
    "only base recompiled" [ "base.sml" ]
    (names stats.Driver.st_recompiled);
  (* and execution picks up the *new* behaviour through old bins *)
  let dynenv = Driver.run mgr ~sources:chain_sources in
  ignore dynenv

let test_interface_change_recompiles_cone () =
  let fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  (* change Base's interface: origin becomes a string *)
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 10 val extra = 1 fun scale n = n * \
     origin end";
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check (list string))
    "cone recompiled" [ "base.sml"; "mid.sml"; "top.sml" ]
    (names stats.Driver.st_recompiled)

let test_interface_change_mid_cone_only () =
  (* editing the middle of the chain never touches the base *)
  let fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  fs.Vfs.fs_write "mid.sml"
    "structure Mid = struct val v = Base.scale 3 val extra = 0 end";
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check (list string))
    "mid and top only" [ "mid.sml"; "top.sml" ]
    (names stats.Driver.st_recompiled)

let test_diamond_topology () =
  (* base <- left, right <- join: an interface-preserving edit to left
     recompiles only left under cutoff; timestamp also rebuilds join *)
  let sources =
    [
      ("base.sml", "structure Base = struct val b = 1 end");
      ("left.sml", "structure Left = struct val l = Base.b + 1 end");
      ("right.sml", "structure Right = struct val r = Base.b + 2 end");
      ( "join.sml",
        "structure Join = struct val j = Left.l + Right.r end" );
    ]
  in
  let files = List.map fst sources in
  let fs, mgr = setup sources in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:files in
  fs.Vfs.fs_write "left.sml" "structure Left = struct val l = Base.b + 100 end";
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:files in
  Alcotest.(check (list string))
    "cutoff: left only" [ "left.sml" ]
    (names stats.Driver.st_recompiled);
  (* same edit under timestamp: left and join *)
  let fs2, mgr2 = setup sources in
  let _ = Driver.build mgr2 ~policy:Driver.Timestamp ~sources:files in
  fs2.Vfs.fs_write "left.sml"
    "structure Left = struct val l = Base.b + 100 end";
  let stats2 = Driver.build mgr2 ~policy:Driver.Timestamp ~sources:files in
  Alcotest.(check (list string))
    "timestamp: left and join" [ "left.sml"; "join.sml" ]
    (names stats2.Driver.st_recompiled)

let test_cutoff_build_equals_scratch_build () =
  (* soundness: after incremental builds, bins carry the same interface
     pids as a from-scratch build *)
  let fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 5 fun scale n = n * origin * 2 end";
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  let incremental =
    List.map
      (fun f -> (Driver.unit_of mgr f).Pickle.Binfile.uf_static_pid)
      [ "base.sml"; "mid.sml"; "top.sml" ]
  in
  (* scratch *)
  let fs2 = Vfs.memory () in
  fs2.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 5 fun scale n = n * origin * 2 end";
  fs2.Vfs.fs_write "mid.sml" mid_src;
  fs2.Vfs.fs_write "top.sml" top_src;
  let mgr2 = Driver.create fs2 in
  let _ = Driver.build mgr2 ~policy:Driver.Cutoff ~sources:chain_sources in
  let scratch =
    List.map
      (fun f -> (Driver.unit_of mgr2 f).Pickle.Binfile.uf_static_pid)
      [ "base.sml"; "mid.sml"; "top.sml" ]
  in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "incremental = scratch interface" true (Pid.equal a b))
    incremental scratch

let test_execution_after_build () =
  let _fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  let dynenv = Driver.run mgr ~sources:chain_sources in
  let top = Driver.unit_of mgr "top.sml" in
  let _, pid =
    List.hd top.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports
  in
  match Pid.Map.find pid dynenv with
  | Value.Vrecord fields -> (
    match Symbol.Map.find (Symbol.intern "result") fields with
    | Value.Vint n -> Alcotest.(check int) "Top.result" 30 n
    | v -> Alcotest.fail (Value.to_string v))
  | v -> Alcotest.fail (Value.to_string v)

let test_cycle_detection () =
  let fs, mgr =
    setup
      [
        ("a.sml", "structure A = struct val x = B.y end");
        ("b.sml", "structure B = struct val y = A.x end");
      ]
  in
  ignore fs;
  match
    Diag.guard (fun () ->
        Driver.build mgr ~policy:Driver.Cutoff ~sources:[ "a.sml"; "b.sml" ])
  with
  | Error d ->
    Alcotest.(check bool) "manager error" true (d.Diag.phase = Diag.Manager)
  | Ok _ -> Alcotest.fail "cycle must be reported"

let test_duplicate_module_detection () =
  let _fs, mgr =
    setup
      [
        ("a.sml", "structure Dup = struct val x = 1 end");
        ("b.sml", "structure Dup = struct val x = 2 end");
      ]
  in
  match
    Diag.guard (fun () ->
        Driver.build mgr ~policy:Driver.Cutoff ~sources:[ "a.sml"; "b.sml" ])
  with
  | Error d ->
    Alcotest.(check bool) "manager error" true (d.Diag.phase = Diag.Manager)
  | Ok _ -> Alcotest.fail "duplicate module must be reported"

let test_corrupt_bin_forces_recompile () =
  let fs, mgr = chain () in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  (* damage mid's bin; the next build must recompile it, not crash *)
  (match fs.Vfs.fs_read "mid.sml.bin" with
  | Some bytes ->
    fs.Vfs.fs_write "mid.sml.bin" (String.sub bytes 0 (String.length bytes / 2))
  | None -> Alcotest.fail "bin missing");
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check (list string))
    "mid recompiled" [ "mid.sml" ]
    (names stats.Driver.st_recompiled)

let test_group_files () =
  Alcotest.(check (list string))
    "parse"
    [ "a.sml"; "b.sml" ]
    (Group.parse "# project\n a.sml \n\nb.sml # main\n");
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "sources.cm" "x.sml\ny.sml\n";
  Alcotest.(check (list string))
    "load" [ "x.sml"; "y.sml" ] (Group.load fs "sources.cm")

let test_functor_across_units () =
  (* the paper's central scenario: a functor in one unit, applied in
     another, with cutoff working across the boundary *)
  let sources =
    [
      ( "sig.sml",
        "signature ORD = sig type elem val less : elem * elem -> bool end" );
      ( "sort.sml",
        "functor Sort (O : ORD) = struct\n\
         fun insert (x, nil) = [x]\n\
        \  | insert (x, y :: ys) = if O.less (x, y) then x :: y :: ys else y \
         :: insert (x, ys)\n\
         fun sort nil = nil | sort (x :: xs) = insert (x, sort xs)\n\
         end" );
      ( "intord.sml",
        "structure IntOrd = struct type elem = int fun less (a, b) = a < b end"
      );
      ( "main.sml",
        "structure Main = struct\n\
         structure S = Sort(IntOrd)\n\
         fun digits xs = let fun go (acc, l) = case l of nil => acc | x :: r \
         => go (acc * 10 + x, r) in go (0, xs) end\n\
         val answer = digits (S.sort [3, 1, 2])\n\
         end" );
    ]
  in
  let files = List.map fst sources in
  let fs, mgr = setup sources in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:files in
  Alcotest.(check int) "all four compiled" 4
    (List.length stats.Driver.st_recompiled);
  let dynenv = Driver.run mgr ~sources:files in
  let main = Driver.unit_of mgr "main.sml" in
  let _, pid =
    List.hd main.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports
  in
  (match Pid.Map.find pid dynenv with
  | Value.Vrecord fields -> (
    match Symbol.Map.find (Symbol.intern "answer") fields with
    | Value.Vint n -> Alcotest.(check int) "sorted digits" 123 n
    | v -> Alcotest.fail (Value.to_string v))
  | v -> Alcotest.fail (Value.to_string v));
  (* interface-preserving change to the functor's implementation:
     cutoff recompiles only sort.sml *)
  fs.Vfs.fs_write "sort.sml"
    "functor Sort (O : ORD) = struct\n\
     fun insert (x, nil) = x :: nil\n\
    \  | insert (x, y :: ys) = if O.less (x, y) then x :: y :: ys else y :: \
     insert (x, ys)\n\
     fun sort nil = nil | sort (x :: xs) = insert (x, sort xs)\n\
     end";
  let stats2 = Driver.build mgr ~policy:Driver.Cutoff ~sources:files in
  Alcotest.(check (list string))
    "only the functor's unit" [ "sort.sml" ]
    (names stats2.Driver.st_recompiled)

(* A unit exporting two independent modules, with two clients that each
   reference only one of them. *)
let multi_sources =
  [
    ( "multi.sml",
      "structure Alpha = struct val a = 1 end\n\
       structure Beta = struct val b = 2 end" );
    ("usea.sml", "structure UseA = struct val v = Alpha.a end");
    ("useb.sml", "structure UseB = struct val v = Beta.b end");
  ]

let multi_files = List.map fst multi_sources

let test_selective_skips_sibling_change () =
  let fs, mgr = setup multi_sources in
  let _ = Driver.build mgr ~policy:Driver.Selective ~sources:multi_files in
  (* change Beta's interface; Alpha is untouched *)
  fs.Vfs.fs_write "multi.sml"
    "structure Alpha = struct val a = 1 end\n\
     structure Beta = struct val b = 2 val extra = 3 end";
  let stats = Driver.build mgr ~policy:Driver.Selective ~sources:multi_files in
  (* selective: only multi and Beta's client recompile, Alpha's client
     survives *)
  Alcotest.(check (list string))
    "selective spares Alpha's client"
    [ "multi.sml"; "useb.sml" ]
    (names stats.Driver.st_recompiled);
  (* cutoff, in contrast, rebuilds both clients *)
  let fs2, mgr2 = setup multi_sources in
  let _ = Driver.build mgr2 ~policy:Driver.Cutoff ~sources:multi_files in
  fs2.Vfs.fs_write "multi.sml"
    "structure Alpha = struct val a = 1 end\n\
     structure Beta = struct val b = 2 val extra = 3 end";
  let stats2 = Driver.build mgr2 ~policy:Driver.Cutoff ~sources:multi_files in
  Alcotest.(check int) "cutoff rebuilds all three" 3
    (List.length stats2.Driver.st_recompiled)

let test_selective_skip_is_sound_in_fresh_session () =
  (* the hard case: after a selective skip, a *new* manager (fresh
     context, nothing cached) must still load, link, compile against,
     and execute the skipped bin *)
  let fs, mgr = setup multi_sources in
  let _ = Driver.build mgr ~policy:Driver.Selective ~sources:multi_files in
  fs.Vfs.fs_write "multi.sml"
    "structure Alpha = struct val a = 1 end\n\
     structure Beta = struct val b = 20 val extra = 3 end";
  let _ = Driver.build mgr ~policy:Driver.Selective ~sources:multi_files in
  (* fresh manager over the same file system: usea.sml.bin is stale by
     unit pid but valid by per-binding pids *)
  let mgr2 = Driver.create fs in
  let stats = Driver.build mgr2 ~policy:Driver.Selective ~sources:multi_files in
  Alcotest.(check int) "fresh session: nothing recompiled" 0
    (List.length stats.Driver.st_recompiled);
  (* execution still works and sees the *new* Beta *)
  let dynenv = Driver.run mgr2 ~sources:multi_files in
  let useb = Driver.unit_of mgr2 "useb.sml" in
  let _, pid =
    List.hd useb.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports
  in
  (match Pid.Map.find pid dynenv with
  | Value.Vrecord fields -> (
    match Symbol.Map.find (Symbol.intern "v") fields with
    | Value.Vint n -> Alcotest.(check int) "UseB sees new Beta.b" 20 n
    | v -> Alcotest.fail (Value.to_string v))
  | v -> Alcotest.fail (Value.to_string v));
  (* and a new client compiles against the skipped Alpha-client bin *)
  fs.Vfs.fs_write "chain.sml" "structure Chain = struct val w = UseA.v end";
  let stats3 =
    Driver.build mgr2 ~policy:Driver.Selective
      ~sources:("chain.sml" :: multi_files)
  in
  Alcotest.(check (list string))
    "only the new unit compiles" [ "chain.sml" ]
    (names stats3.Driver.st_recompiled)

let test_selective_entangled_types_cascade () =
  (* two exported modules sharing a generative type: changing the
     owner's interface must reach clients of the *other* module too,
     because its identity hangs off the owner's pid *)
  let sources =
    [
      ( "pair.sml",
        "structure Maker = struct datatype t = T of int fun mk n = T n end\n\
         structure User = struct fun un (Maker.T n) = n val probe = \
         Maker.mk 0 end" );
      ("client.sml", "structure Client = struct val v = User.un User.probe end");
    ]
  in
  let files = List.map fst sources in
  let fs, mgr = setup sources in
  let _ = Driver.build mgr ~policy:Driver.Selective ~sources:files in
  (* interface change to Maker (the type's owner) *)
  fs.Vfs.fs_write "pair.sml"
    "structure Maker = struct datatype t = T of int fun mk n = T n val more \
     = 1 end\n\
     structure User = struct fun un (Maker.T n) = n val probe = Maker.mk 0 \
     end";
  let stats = Driver.build mgr ~policy:Driver.Selective ~sources:files in
  (* User references Maker's type, so User's per-binding pid changes,
     and the client recompiles: no unsound skip *)
  Alcotest.(check (list string))
    "cascade reaches the client" [ "pair.sml"; "client.sml" ]
    (names stats.Driver.st_recompiled)

(* The warm dependency scan: a warm manager parses only the sources
   whose text changed since it last scanned them. *)
let parses () = Option.value ~default:0 (Obs.Metrics.find "depend.parses")

let parses_during f =
  let before = parses () in
  let v = f () in
  (v, parses () - before)

let test_warm_scan_parses_changed () =
  let fs, mgr = chain () in
  let build sources () = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  let _, cold = parses_during (build chain_sources) in
  Alcotest.(check int) "cold build parses every unit" 3 cold;
  let _, null = parses_during (build chain_sources) in
  Alcotest.(check int) "null build parses nothing" 0 null;
  fs.Vfs.fs_write "mid.sml" "structure Mid = struct val v = Base.scale 3 end";
  let stats, edit = parses_during (build chain_sources) in
  Alcotest.(check int) "one-file edit parses that file" 1 edit;
  Alcotest.(check (list string)) "and recompiles it" [ "mid.sml" ]
    stats.Driver.st_recompiled;
  let graph, query =
    parses_during (fun () -> Driver.dependency_graph mgr ~sources:chain_sources)
  in
  Alcotest.(check int) "a graph query on a warm manager parses nothing" 0 query;
  Alcotest.(check (list string)) "its order"
    [ "base.sml"; "mid.sml"; "top.sml" ]
    (Depgraph.topological graph);
  (* a file that leaves the group leaves the memo with it *)
  let _, shrunk = parses_during (build [ "base.sml"; "mid.sml" ]) in
  Alcotest.(check int) "a shrunk group parses nothing" 0 shrunk;
  let _, regrown = parses_during (build chain_sources) in
  Alcotest.(check int) "a returning file is parsed again" 1 regrown

let test_warm_scan_trace_args () =
  let fs, mgr = chain () in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources);
  fs.Vfs.fs_write "top.sml"
    "structure Top = struct val result = Mid.v + Base.origin + 1 end";
  Obs.Trace.enable ();
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources);
      match
        List.filter
          (fun e -> e.Obs.Trace.ev_name = "build.scan_sources")
          (Obs.Trace.events ())
      with
      | [ scan ] ->
        Alcotest.(check (list (pair string string)))
          "memo hits and misses"
          [ ("hits", "2"); ("misses", "1") ]
          scan.Obs.Trace.ev_args
      | scans ->
        Alcotest.failf "expected one build.scan_sources span, got %d"
          (List.length scans))

(* A unit that leaves the group leaves the manager's warm state with it:
   when it returns, its bin is read and rehydrated again. *)
let test_dropped_unit_leaves_warm_state () =
  let _fs, mgr = chain () in
  let build sources = ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources) in
  let rehydrations () =
    Option.value ~default:0 (Obs.Metrics.find "pickle.rehydrations")
  in
  build chain_sources;
  build [ "base.sml"; "mid.sml" ];
  let before = rehydrations () in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check (list string)) "the returning unit's bin is intact"
    [ "base.sml"; "mid.sml"; "top.sml" ] stats.Driver.st_loaded;
  Alcotest.(check bool) "and is rehydrated again" true
    (rehydrations () - before >= 1)

(* A compile job rehydrates only its import closure's static views; its
   span's [closure_bytes] arg says how many bytes that was. *)
let test_compile_job_closure_bytes () =
  let fs, mgr = chain () in
  Obs.Trace.enable ();
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources);
      let graph = Driver.dependency_graph mgr ~sources:chain_sources in
      let bin file = Option.get (fs.Vfs.fs_read (file ^ ".bin")) in
      let sum f file =
        List.fold_left
          (fun n dep -> n + String.length (f (bin dep)))
          0
          (Depgraph.closure graph file)
      in
      let jobs =
        List.filter
          (fun e -> e.Obs.Trace.ev_name = "build.compile_job")
          (Obs.Trace.events ())
      in
      Alcotest.(check int) "one job per unit" 3 (List.length jobs);
      List.iter
        (fun e ->
          let arg k = List.assoc k e.Obs.Trace.ev_args in
          let file = arg "unit" in
          let shipped = int_of_string (arg "closure_bytes") in
          Alcotest.(check int)
            (file ^ ": the closure's static views")
            (sum Pickle.Binfile.static_of_full file)
            shipped;
          if Depgraph.closure graph file <> [] then
            Alcotest.(check bool)
              (file ^ ": below the full bins")
              true
              (shipped < sum Fun.id file))
        jobs)

(* ---- decoded static views, shared by in-process jobs ---- *)

let counter name = Option.value ~default:0 (Obs.Metrics.find name)

let rich_project ~seed =
  let fs = Vfs.memory () in
  let project =
    Workload.Gen.create fs
      (Workload.Gen.Random_dag { units = 16; max_deps = 3; seed })
      Workload.Gen.rich_profile
  in
  (fs, Workload.Gen.sources project)

(* An in-process cold build parses each bin once: the manager decodes a
   unit's result when it completes, and every dependent's job
   rehydrates that decode.  Rehydrations still count one per closure
   view per job plus one per completed unit. *)
let test_cold_build_decodes_once backend () =
  let fs, sources = rich_project ~seed:3 in
  let mgr = Driver.create fs in
  let d0 = counter "pickle.decodes" and r0 = counter "pickle.rehydrations" in
  let stats = Driver.build ~backend mgr ~policy:Driver.Cutoff ~sources in
  let decodes = counter "pickle.decodes" - d0
  and rehydrations = counter "pickle.rehydrations" - r0 in
  let graph = Driver.dependency_graph mgr ~sources in
  let closures =
    List.fold_left
      (fun n file -> n + List.length (Depgraph.closure graph file))
      0 sources
  in
  let units = List.length sources in
  Alcotest.(check int) "every unit recompiled" units
    (List.length stats.Driver.st_recompiled);
  Alcotest.(check int) "one decode per recompiled unit" units decodes;
  Alcotest.(check int) "one rehydration per closure view and per unit"
    (closures + units) rehydrations

(* Parallel jobs share the manager's decodes across domains.  After the
   build every view still re-pickles to the bytes it was decoded from,
   and equals a fresh decode of them: no job wrote through a view. *)
let test_shared_views_unwritten () =
  let fs, sources = rich_project ~seed:5 in
  let mgr = Driver.create fs in
  ignore
    (Driver.build ~backend:(Driver.Parallel 2) mgr ~policy:Driver.Cutoff
       ~sources);
  let session = Sepcomp.Compile.new_session () in
  let ctx = Sepcomp.Compile.context session in
  List.iter
    (fun file ->
      let v = Option.get (Driver.static_view mgr file) in
      let unit_ = Sepcomp.Compile.rehydrate session v.Irm.Wire.v_decoded in
      Alcotest.(check string)
        (file ^ ": re-pickled view = its bytes")
        v.Irm.Wire.v_bytes
        (Pickle.Binfile.static_of_full (Pickle.Binfile.write ctx unit_));
      let fresh = Irm.Wire.view v.Irm.Wire.v_bytes in
      Alcotest.(check bool)
        (file ^ ": view = a fresh decode")
        true
        (unit_ = Sepcomp.Compile.rehydrate session fresh.Irm.Wire.v_decoded))
    (Driver.last_order mgr)

(* ---- the run key and the linker's import check ---- *)

(* the daemon memoizes a Run on [link_snapshot]: each distinct bin is
   digested once, and a fingerprint moves iff its bin did *)
let test_link_snapshot_digests_once () =
  let fs, mgr = chain () in
  let snapshot () =
    ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources);
    Driver.link_snapshot mgr
  in
  let first = snapshot () in
  Alcotest.(check (list string)) "link order"
    [ "base.sml"; "mid.sml"; "top.sml" ] (List.map fst first);
  let same what a b =
    List.iter2
      (fun (name, fa) (_, fb) ->
        Alcotest.(check bool) (name ^ ": " ^ what) true (fa == fb))
      a b
  in
  same "same fingerprint" first (Driver.link_snapshot mgr);
  same "same fingerprint after a null build" first (snapshot ());
  fs.Vfs.fs_write "top.sml"
    "structure Top = struct val result = Mid.v + Base.origin + 1 end";
  List.iter2
    (fun (name, fa) (_, fb) ->
      Alcotest.(check bool)
        (name ^ ": fingerprint moves iff the bin did")
        (name <> "top.sml") (String.equal fa fb))
    first (snapshot ())

(* executing a unit whose provider is not linked is E0601, naming the
   importer *)
let test_dropped_provider_e0601 () =
  let _, mgr = chain () in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources);
  match
    Diag.guard (fun () ->
        Driver.run mgr ~sources:[ "mid.sml"; "top.sml" ])
  with
  | Error d ->
    Alcotest.(check string) "E0601" "E0601" d.Diag.code;
    Alcotest.(check (option string)) "names the importer" (Some "mid.sml")
      d.Diag.unit_name;
    Alcotest.(check bool) "link phase" true (d.Diag.phase = Diag.Link)
  | Ok _ -> Alcotest.fail "expected an unsatisfied import"

(* ---- codeUnits stay pickled until linked ---- *)

let during name f =
  let c0 = counter name in
  let v = f () in
  (v, counter name - c0)

(* a build reads only statics: neither a cold build nor a null build,
   warm or in a fresh manager, decodes a codeUnit *)
let test_builds_decode_no_code () =
  let fs, sources = rich_project ~seed:7 in
  let build mgr () = ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources) in
  let mgr = Driver.create fs in
  let _, cold = during "pickle.code_decodes" (build mgr) in
  Alcotest.(check int) "a cold build decodes no code" 0 cold;
  let _, warm = during "pickle.code_decodes" (build mgr) in
  Alcotest.(check int) "a warm null build decodes no code" 0 warm;
  let (_, fresh), decodes =
    during "pickle.decodes" (fun () ->
        during "pickle.code_decodes" (build (Driver.create fs)))
  in
  Alcotest.(check int) "a fresh null build decodes no code" 0 fresh;
  Alcotest.(check int) "and each bin's statics once" (List.length sources)
    decodes

(* [run] decodes each unit's codeUnit the first time it links it and
   keeps it; [unit_of] decodes on demand without keeping it *)
let test_run_decodes_code_once () =
  let fs, sources = rich_project ~seed:11 in
  let mgr = Driver.create fs in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources);
  let mgr = Driver.create fs in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources);
  let victim = List.hd sources in
  let code_decodes f = snd (during "pickle.code_decodes" f) in
  Alcotest.(check int) "unit_of before a run decodes" 1
    (code_decodes (fun () -> ignore (Driver.unit_of mgr victim)));
  Alcotest.(check int) "and keeps nothing" 1
    (code_decodes (fun () -> ignore (Driver.unit_of mgr victim)));
  Alcotest.(check int) "interface_of decodes nothing" 0
    (code_decodes (fun () -> ignore (Driver.interface_of mgr victim)));
  let out = Buffer.create 64 in
  Alcotest.(check int) "a one-shot run decodes each unit once"
    (List.length sources)
    (code_decodes (fun () ->
         ignore (Driver.run ~output:(Buffer.add_string out) mgr ~sources)));
  Alcotest.(check int) "a second run decodes nothing" 0
    (code_decodes (fun () -> ignore (Driver.run mgr ~sources)));
  Alcotest.(check int) "unit_of after a run reuses its decode" 0
    (code_decodes (fun () -> ignore (Driver.unit_of mgr victim)));
  let cold = Driver.create fs in
  ignore (Driver.build cold ~policy:Driver.Cutoff ~sources);
  Alcotest.(check bool) "unit_of = the full decode of the bin" true
    (Driver.unit_of cold victim
    = Sepcomp.Compile.load (Sepcomp.Compile.new_session ())
        (Option.get (fs.Vfs.fs_read (victim ^ ".bin"))))

(* a bin whose CRC holds but whose code section does not parse loads
   for a build, fails as a checked [Corrupt] when linked, and is
   quarantined by [recover], which checks both sections *)
let test_unparseable_code_when_linked () =
  let fs, mgr = chain () in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources);
  let bin = Option.get (fs.Vfs.fs_read "mid.sml.bin") in
  let payload = String.sub bin 0 (String.length bin - 8) ^ "\x00" in
  let trailer = Bytes.create 8 in
  Bytes.set_int64_be trailer 0
    Digestkit.Crc64.(
      finish (update init (Bytes.unsafe_of_string payload) 0 (String.length payload)));
  fs.Vfs.fs_write "mid.sml.bin" (payload ^ Bytes.to_string trailer);
  let mgr = Driver.create fs in
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check (list string)) "its statics load"
    [ "base.sml"; "mid.sml"; "top.sml" ] stats.Driver.st_loaded;
  (match Driver.run mgr ~sources:chain_sources with
  | exception Pickle.Buf.Corrupt _ -> ()
  | exception e ->
    Alcotest.failf "linking raised %s instead of Corrupt" (Printexc.to_string e)
  | _ -> Alcotest.fail "the bad code section went unnoticed");
  let rv = Driver.recover mgr ~sources:chain_sources in
  Alcotest.(check (list string)) "recover quarantines it" [ "mid.sml" ]
    rv.Driver.rv_quarantined;
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources in
  Alcotest.(check (list string)) "the next build recompiles it" [ "mid.sml" ]
    stats.Driver.st_recompiled;
  ignore (Driver.run mgr ~sources:chain_sources)

(* a run over a subset of the group keeps the rest of the manager warm:
   the null build after it parses no source and decodes no bin, and the
   build's graph memo survives the subset's scan *)
let test_subset_run_keeps_warm_state () =
  let _fs, mgr = chain () in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources);
  let graph = Driver.dependency_graph mgr ~sources:chain_sources in
  ignore (Driver.run mgr ~sources:[ "base.sml" ]);
  let (stats, decodes), parses =
    parses_during (fun () ->
        during "pickle.decodes" (fun () ->
            Driver.build mgr ~policy:Driver.Cutoff ~sources:chain_sources))
  in
  Alcotest.(check int) "the null build parses nothing" 0 parses;
  Alcotest.(check int) "and decodes no bin" 0 decodes;
  Alcotest.(check int) "and loads every unit" 3
    (List.length stats.Driver.st_loaded);
  Alcotest.(check bool) "the build's graph is still memoized" true
    (Driver.dependency_graph mgr ~sources:chain_sources == graph)

(* ---- the memoized dependency graph follows the summaries ---- *)

(* [mgr]'s graph of [sources] equals a fresh manager's: same order,
   same closure for every unit *)
let check_graph what fs mgr sources =
  let warm = Driver.dependency_graph mgr ~sources in
  let fresh = Driver.dependency_graph (Driver.create fs) ~sources in
  Alcotest.(check (list string)) (what ^ ": order")
    (Depgraph.topological fresh) (Depgraph.topological warm);
  List.iter
    (fun file ->
      Alcotest.(check (list string))
        (what ^ ": closure of " ^ file)
        (Depgraph.closure fresh file) (Depgraph.closure warm file))
    sources

let xyz () =
  setup
    [
      ("x.sml", "structure X = struct val v = 1 end");
      ("y.sml", "structure Y = struct val w = 2 end");
      ("z.sml", "structure Z = struct val r = Y.w end");
    ]

let xyz_sources = [ "z.sml"; "y.sml"; "x.sml" ]

let manager_error what f =
  match Diag.guard f with
  | Error d ->
    Alcotest.(check bool) (what ^ ": a manager error") true
      (d.Diag.phase = Diag.Manager);
    d.Diag.message
  | Ok _ -> Alcotest.failf "%s: the build succeeded" what

(* a new import edge: the new dependency builds first, and its
   dependents' closures include it *)
let test_graph_memo_new_edge () =
  let fs, mgr = xyz () in
  let build () = Driver.build mgr ~policy:Driver.Cutoff ~sources:xyz_sources in
  ignore (build ());
  fs.Vfs.fs_write "y.sml" "structure Y = struct val w = X.v + 1 end";
  let stats = build () in
  Alcotest.(check (list string)) "x builds before y"
    [ "x.sml"; "y.sml"; "z.sml" ] stats.Driver.st_order;
  Alcotest.(check (list string)) "z's closure includes x"
    [ "x.sml"; "y.sml" ]
    (Depgraph.closure (Driver.dependency_graph mgr ~sources:xyz_sources) "z.sml");
  check_graph "new edge" fs mgr xyz_sources

(* renaming a defined structure moves the edge with it *)
let test_graph_memo_rename () =
  let fs, mgr = xyz () in
  let build () = Driver.build mgr ~policy:Driver.Cutoff ~sources:xyz_sources in
  ignore (build ());
  fs.Vfs.fs_write "x.sml" "structure Y2 = struct val v = 1 end";
  fs.Vfs.fs_write "z.sml" "structure Z = struct val r = Y2.v end";
  let stats = build () in
  Alcotest.(check (list string)) "z now follows x"
    [ "x.sml"; "z.sml"; "y.sml" ] stats.Driver.st_order;
  check_graph "rename" fs mgr xyz_sources

(* a module defined twice, or a cycle, raises on every build until it
   is mended: a failed graph is never memoized *)
let test_graph_memo_errors_repeat () =
  let fs, mgr = xyz () in
  let build () = Driver.build mgr ~policy:Driver.Cutoff ~sources:xyz_sources in
  ignore (build ());
  fs.Vfs.fs_write "x.sml" "structure Y = struct val w = 3 end";
  let first = manager_error "duplicate" build in
  Alcotest.(check string) "defined by both"
    "module Y is defined by both y.sml and x.sml" first;
  Alcotest.(check string) "defined by both, again" first
    (manager_error "duplicate, again" build);
  fs.Vfs.fs_write "x.sml" "structure X = struct val v = Z.r end";
  fs.Vfs.fs_write "y.sml" "structure Y = struct val w = X.v end";
  let first = manager_error "cycle" build in
  Alcotest.(check string) "the cycle, again" first
    (manager_error "cycle, again" build);
  fs.Vfs.fs_write "x.sml" "structure X = struct val v = 1 end";
  let stats = build () in
  Alcotest.(check (list string)) "mended" [ "x.sml"; "y.sml"; "z.sml" ]
    stats.Driver.st_order;
  check_graph "mended" fs mgr xyz_sources

(* a unit joining or leaving the group rebuilds the graph *)
let test_graph_memo_group_changes () =
  let fs, mgr = xyz () in
  let build sources = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  ignore (build xyz_sources);
  fs.Vfs.fs_write "w.sml" "structure W = struct val u = Z.r + X.v end";
  let grown = "w.sml" :: xyz_sources in
  let stats = build grown in
  Alcotest.(check (list string)) "a joining unit builds after its deps"
    [ "x.sml"; "y.sml"; "z.sml"; "w.sml" ] stats.Driver.st_order;
  check_graph "grown" fs mgr grown;
  let shrunk = [ "y.sml"; "x.sml" ] in
  let stats = build shrunk in
  Alcotest.(check (list string)) "leaving units leave the order"
    [ "y.sml"; "x.sml" ] stats.Driver.st_order;
  check_graph "shrunk" fs mgr shrunk;
  let stats = build xyz_sources in
  Alcotest.(check (list string)) "a returning unit"
    [ "y.sml"; "z.sml"; "x.sml" ] stats.Driver.st_order

let suite =
  [
    Alcotest.test_case "dependency scan" `Quick test_scan;
    Alcotest.test_case "selective skips sibling changes" `Quick
      test_selective_skips_sibling_change;
    Alcotest.test_case "selective skip sound in fresh session" `Quick
      test_selective_skip_is_sound_in_fresh_session;
    Alcotest.test_case "selective: entangled types still cascade" `Quick
      test_selective_entangled_types_cascade;
    Alcotest.test_case "scan ignores local bindings" `Quick
      test_scan_ignores_locals;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "initial build compiles all" `Quick
      test_initial_build_compiles_all;
    Alcotest.test_case "null build loads all" `Quick test_null_build_loads_all;
    Alcotest.test_case "timestamp cascades on touch" `Quick
      test_timestamp_cascades_on_touch;
    Alcotest.test_case "cutoff stops cascade on touch" `Quick
      test_cutoff_stops_cascade_on_touch;
    Alcotest.test_case "cutoff stops cascade on implementation change" `Quick
      test_cutoff_stops_cascade_on_impl_change;
    Alcotest.test_case "interface change recompiles the cone" `Quick
      test_interface_change_recompiles_cone;
    Alcotest.test_case "mid-chain edit spares the base" `Quick
      test_interface_change_mid_cone_only;
    Alcotest.test_case "diamond topology" `Quick test_diamond_topology;
    Alcotest.test_case "incremental equals scratch" `Quick
      test_cutoff_build_equals_scratch_build;
    Alcotest.test_case "execution after build" `Quick test_execution_after_build;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "duplicate module detection" `Quick
      test_duplicate_module_detection;
    Alcotest.test_case "corrupt bin forces recompile" `Quick
      test_corrupt_bin_forces_recompile;
    Alcotest.test_case "group files" `Quick test_group_files;
    Alcotest.test_case "functor across units with cutoff" `Quick
      test_functor_across_units;
    Alcotest.test_case "warm scan parses only changed sources" `Quick
      test_warm_scan_parses_changed;
    Alcotest.test_case "warm scan reports hits and misses" `Quick
      test_warm_scan_trace_args;
    Alcotest.test_case "a dropped unit leaves the warm state" `Quick
      test_dropped_unit_leaves_warm_state;
    Alcotest.test_case "compile jobs ship static views" `Quick
      test_compile_job_closure_bytes;
    Alcotest.test_case "serial cold build decodes each bin once" `Quick
      (test_cold_build_decodes_once Driver.Serial);
    Alcotest.test_case "parallel cold build decodes each bin once" `Quick
      (test_cold_build_decodes_once (Driver.Parallel 2));
    Alcotest.test_case "shared views stay unwritten" `Quick
      test_shared_views_unwritten;
    Alcotest.test_case "link snapshot digests each bin once" `Quick
      test_link_snapshot_digests_once;
    Alcotest.test_case "builds decode no codeUnit" `Quick
      test_builds_decode_no_code;
    Alcotest.test_case "run decodes each codeUnit once" `Quick
      test_run_decodes_code_once;
    Alcotest.test_case "an unparseable code section is Corrupt when linked"
      `Quick test_unparseable_code_when_linked;
    Alcotest.test_case "a subset run keeps the warm state" `Quick
      test_subset_run_keeps_warm_state;
    Alcotest.test_case "graph memo: a new import edge" `Quick
      test_graph_memo_new_edge;
    Alcotest.test_case "graph memo: a renamed structure" `Quick
      test_graph_memo_rename;
    Alcotest.test_case "graph memo: errors raise on every build" `Quick
      test_graph_memo_errors_repeat;
    Alcotest.test_case "graph memo: units join and leave" `Quick
      test_graph_memo_group_changes;
    Alcotest.test_case "run: a dropped provider is E0601" `Quick
      test_dropped_provider_e0601;
  ]
