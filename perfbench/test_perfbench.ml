(* The benchmark's own tests: its statistics, its trace arithmetic, and
   the determinism of its seeded inputs. *)

open Perfbench

let feq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "median" 5.5 (Stats.median xs);
  Alcotest.check feq "p90" 9.1 (Stats.percentile xs 90.);
  Alcotest.check feq "p0" 1. (Stats.percentile xs 0.);
  Alcotest.check feq "p100" 10. (Stats.percentile xs 100.);
  Alcotest.check feq "one sample" 3. (Stats.median [ 3. ]);
  Alcotest.check feq "unsorted input" 2. (Stats.median [ 3.; 1.; 2. ])

let test_percentile_rule () =
  let rule = Alcotest.(option (float 1e-9)) in
  (* the highest percentile with at least ten samples beyond it *)
  Alcotest.check rule "19 samples: none" None (Stats.reportable_percentile 19);
  Alcotest.check rule "20 samples: median" (Some 50.) (Stats.reportable_percentile 20);
  Alcotest.check rule "99 samples: median" (Some 50.) (Stats.reportable_percentile 99);
  Alcotest.check rule "100 samples: p90" (Some 90.) (Stats.reportable_percentile 100);
  Alcotest.check rule "999 samples: p90" (Some 90.) (Stats.reportable_percentile 999);
  Alcotest.check rule "1000 samples: p99" (Some 99.) (Stats.reportable_percentile 1000);
  Alcotest.check rule "10000 samples: p99.9" (Some 99.9)
    (Stats.reportable_percentile 10000);
  Alcotest.(check int) "p90 floor" 100 Stats.min_samples_p90;
  Alcotest.(check (option (float 1e-9)))
    "the p90 floor meets the rule" (Some 90.)
    (Stats.reportable_percentile Stats.min_samples_p90)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span ?parent ?(op = 1) id name start stop =
  { Spans.id; name; op; parent; start; stop }

let self_of spans id =
  snd (List.find (fun ((s : Spans.span), _) -> s.id = id) (Spans.self_times spans))

let test_self_time () =
  let spans =
    [
      span 0 "root" 0. 10.;
      (* overlapping children count once; the part outside the parent
         does not count *)
      span 1 "a" 1. 3. ~parent:0;
      span 2 "b" 2. 4. ~parent:0;
      span 3 "c" 9. 12. ~parent:0;
      span 4 "grandchild" 1.5 2.5 ~parent:1;
    ]
  in
  Alcotest.check feq "root" 6. (self_of spans 0);
  Alcotest.check feq "child minus grandchild" 1. (self_of spans 1);
  Alcotest.check feq "leaf" 2. (self_of spans 2);
  Alcotest.check feq "leaf past its parent" 3. (self_of spans 3);
  Alcotest.check feq "no children" 0. (Spans.covered ~lo:0. ~hi:1. []);
  Alcotest.check feq "disjoint" 2. (Spans.covered ~lo:0. ~hi:10. [ (5., 6.); (1., 2.) ])

let test_recorder_nesting () =
  let t = Spans.create () in
  Spans.set_op t 7;
  let v =
    Spans.with_span t "outer" (fun () ->
        Spans.with_span t "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "value" 42 v;
  (try Spans.with_span t "raises" (fun () -> failwith "boom") with Failure _ -> ());
  match Spans.spans t with
  | [ inner; outer; raises ] ->
    Alcotest.(check string) "inner first to finish" "inner" inner.Spans.name;
    Alcotest.(check (option int)) "inner's parent" (Some outer.Spans.id) inner.parent;
    Alcotest.(check (option int)) "outer is a root" None outer.parent;
    Alcotest.(check (option int)) "stack unwound after a raise" None raises.parent;
    Alcotest.(check int) "operation id" 7 inner.op;
    Alcotest.(check bool) "inner within outer" true
      (inner.start >= outer.start && inner.stop <= outer.stop)
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

(* the layer self times plus the remainder are the traced build's wall *)
let test_coverage () =
  let spans =
    [
      span 0 "irm.build" 0. 10.;
      span 1 "vfs.read" 1. 2. ~parent:0;
      span 2 "vfs.write" 8. 8.5 ~parent:0;
      (* the replay runs after the build *)
      span 3 "replay" 11. 20.;
      span 4 "depend.scan" 11. 14. ~parent:3;
      span 5 "lang.parse" 14. 15. ~parent:3;
      span 6 "pickle.read" 15. 15.25 ~parent:3;
      (* another operation's spans do not count *)
      span 7 "lang.parse" 30. 40. ~op:2;
    ]
  in
  let self = Spans.self_by_name spans in
  let layer name = Option.value ~default:0. (Hashtbl.find_opt self (1, name)) in
  let layers =
    List.map layer [ "vfs.read"; "vfs.write"; "depend.scan"; "lang.parse"; "pickle.read" ]
  in
  let wall = 10. in
  let other = Spans.remainder ~wall layers in
  Alcotest.check feq "layers" 5.75 (List.fold_left ( +. ) 0. layers);
  Alcotest.check feq "remainder" 4.25 other;
  Alcotest.check feq "layers + remainder = wall" wall (List.fold_left ( +. ) other layers);
  Alcotest.check feq "the build's own self time is the remainder before replay" 8.5
    (layer "irm.build")

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

let test_calibration_factor () =
  let m m_start m_ref_s = { Calib.m_start; m_stop = m_start +. m_ref_s; m_ref_s } in
  let refs = [ m 0. 0.010; m 1. 0.030; m 5. 0.020 ] in
  let n = Calib.nominal_s in
  (* the mean of the last reference before and the first after *)
  Alcotest.check feq "between two" (n /. 0.020) (Calib.factor ~refs ~start:0.5 ~stop:0.9);
  Alcotest.check feq "nearest ones only" (n /. 0.025) (Calib.factor ~refs ~start:2. ~stop:3.);
  Alcotest.check feq "none after" (n /. 0.020) (Calib.factor ~refs ~start:6. ~stop:7.);
  Alcotest.check feq "none before" (n /. 0.010) (Calib.factor ~refs ~start:(-2.) ~stop:(-1.));
  (* a reference measured while the sample ran counts as neither *)
  Alcotest.check feq "overlapping" (n /. 0.015) (Calib.factor ~refs ~start:0.5 ~stop:4.);
  let t = Calib.create () in
  let s = Calib.series () in
  Calib.tick ~force:true t;
  let t0 = Unix.gettimeofday () in
  Calib.record s ~start:t0 ~stop:t0 7.;
  Calib.finish t;
  Alcotest.(check (list (float 1e-9))) "raw values" [ 7. ] (Calib.raw s);
  match Calib.calibrated t s with
  | [ v ] -> Alcotest.(check bool) "calibrated is positive" true (v > 0.)
  | _ -> Alcotest.fail "one calibrated sample expected"

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

let take n next = List.init n (fun _ -> next ())
let script seed = take 500 (Inputs.edit_script ~seed ~units:120)

let test_edit_script_seeds () =
  let eq = Alcotest.(list (pair int string)) in
  let named = List.map (fun (u, e) -> (u, Inputs.edit_name e)) in
  Alcotest.check eq "same seed, same script"
    (named (script Inputs.default_seed))
    (named (script Inputs.default_seed));
  Alcotest.(check bool) "another seed, another script" false
    (script Inputs.default_seed = script Inputs.held_out_seed);
  let s = script 3 in
  Alcotest.(check bool) "units in range" true (List.for_all (fun (u, _) -> u >= 0 && u < 120) s);
  Alcotest.(check bool) "another seed, another order of kinds" false
    (List.map snd (script 3) = List.map snd (script 4))

let test_edit_mix () =
  let edits = take 1000 (Inputs.edit_script ~seed:5 ~units:7) in
  (* every block of ten edits holds the exact mix *)
  List.iteri
    (fun b block ->
      let count kind = List.length (List.filter (fun (_, k) -> k = kind) block) in
      List.iter
        (fun (kind, want) ->
          Alcotest.(check int)
            (Printf.sprintf "block %d: %s" b (Inputs.edit_name kind))
            want (count kind))
        [ (Inputs.Null, 1); (Inputs.Touch, 2); (Inputs.Impl, 5); (Inputs.Iface, 2) ])
    (List.init 100 (fun b -> List.filteri (fun i _ -> i / 10 = b) edits));
  (* every unit is drawn once before any is drawn again *)
  List.iteri
    (fun r round ->
      Alcotest.(check (list int))
        (Printf.sprintf "round %d draws every unit once" r)
        (List.init 7 Fun.id)
        (List.sort compare (List.map fst round)))
    (List.init 100 (fun r -> List.filteri (fun i _ -> i / 7 = r) edits))

let test_kernel_sizes () =
  let a = Inputs.kernel_sizes ~seed:Inputs.default_seed in
  Alcotest.(check bool) "same seed, same sizes" true
    (a = Inputs.kernel_sizes ~seed:Inputs.default_seed);
  Alcotest.(check bool) "another seed, other sizes" false
    (a = Inputs.kernel_sizes ~seed:Inputs.held_out_seed);
  (* the seed varies the inputs within 3% of the base sizes *)
  List.iter
    (fun seed ->
      let s = Inputs.kernel_sizes ~seed in
      Alcotest.(check bool) "sort size within 3%" true (abs (s.Inputs.sort_n - 800) <= 24);
      Alcotest.(check bool) "fold size within 3%" true (abs (s.Inputs.fold_n - 8000) <= 240))
    (List.init 50 Fun.id)

(* the reference output equals what the kernels print when compiled
   and run through the program *)
let run_sources sources =
  let fs = Vfs.memory () in
  List.iter (fun (f, c) -> fs.Vfs.fs_write f c) sources;
  let m = Irm.Driver.create fs in
  let files = List.map fst sources in
  ignore (Irm.Driver.build m ~policy:Irm.Driver.Cutoff ~sources:files);
  let out = Buffer.create 64 in
  ignore (Irm.Driver.run ~output:(Buffer.add_string out) m ~sources:files);
  Buffer.contents out

let test_kernels_reference () =
  List.iter
    (fun seed ->
      let s = Inputs.kernel_sizes ~seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (Inputs.kernel_expected s)
        (run_sources (Inputs.kernel_sources s)))
    [ Inputs.default_seed; Inputs.held_out_seed ]

(* the DAG draw: seeded, and the closure sizes of every draw match the
   median ones *)
let test_dag_seeds () =
  let units = 120 in
  let d = Inputs.dag_seed ~seed:Inputs.default_seed ~units in
  Alcotest.(check int) "same seed, same DAG" d (Inputs.dag_seed ~seed:Inputs.default_seed ~units);
  Alcotest.(check bool) "another seed, another DAG" false
    (d = Inputs.dag_seed ~seed:Inputs.held_out_seed ~units);
  let target = Inputs.closure_target ~units in
  List.iter
    (fun seed ->
      let sizes = Inputs.closure_sizes ~units ~dag_seed:(Inputs.dag_seed ~seed ~units) in
      let distance = Inputs.sum (Array.mapi (fun k x -> abs (x - target.(k))) sizes) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: total within 2%%" seed)
        true
        (abs (Inputs.sum sizes - Inputs.sum target) * 50 <= Inputs.sum target);
      Alcotest.(check bool) (Printf.sprintf "seed %d: shape" seed) true (distance * 2 <= units))
    [ Inputs.default_seed; Inputs.held_out_seed; 2; 3 ]

let test_probe_reference () =
  let fs = Vfs.memory () in
  let g = Inputs.project ~dag_seed:(Inputs.dag_seed ~seed:4 ~units:12) ~units:12 ~lines:20 fs in
  let sources =
    List.map (fun f -> (f, Option.get (fs.Vfs.fs_read f))) (Workload.Gen.sources g)
  in
  let probe, expected = Inputs.probe_unit sources in
  Alcotest.(check string) "probe output" expected (run_sources (sources @ [ probe ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting;
          Alcotest.test_case "coverage" `Quick test_coverage;
        ] );
      ("calibration", [ Alcotest.test_case "factor" `Quick test_calibration_factor ]);
      ( "inputs",
        [
          Alcotest.test_case "edit script seeds" `Quick test_edit_script_seeds;
          Alcotest.test_case "dag seeds" `Quick test_dag_seeds;
          Alcotest.test_case "edit mix" `Quick test_edit_mix;
          Alcotest.test_case "kernel sizes" `Quick test_kernel_sizes;
          Alcotest.test_case "kernel reference" `Quick test_kernels_reference;
          Alcotest.test_case "probe reference" `Quick test_probe_reference;
        ] );
    ]
