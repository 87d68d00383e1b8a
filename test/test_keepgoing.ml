(* Keep-going builds: structured multi-error diagnostics, poison
   propagation through the build DAG, and determinism of the
   failed/skipped partitions across policies and backends. *)

module Driver = Irm.Driver
module Gen = Workload.Gen
module Diag = Support.Diag

(* ------------------------------------------------------------------ *)
(* Source breakers: string edits that leave the structure wrapper (and
   hence the dependency scan) intact while injecting an error of a
   known phase into the body. *)
(* ------------------------------------------------------------------ *)

(* [Header] is the exception: it misspells the [structure] keyword, so
   the unit's recovery parse no longer defines its module. *)
type breaker = Unbound | Mismatch | Syntax | Lex | Overflow | Header

let replace_first ~needle ~by src =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length src then None
    else if String.sub src i n = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> src
  | Some i ->
    String.sub src 0 i ^ by ^ String.sub src (i + n) (String.length src - i - n)

let apply_breaker kind src =
  match kind with
  | Unbound ->
    replace_first ~needle:"  val seed = "
      ~by:"  val seed = kg_unbound_variable + " src
  | Mismatch ->
    replace_first ~needle:"  val seed = " ~by:"  val seed = (1 2) + " src
  | Syntax ->
    replace_first ~needle:"= struct\n" ~by:"= struct\n  val = 3\n" src
  | Lex -> replace_first ~needle:"= struct\n" ~by:"= struct\n  val q = ?\n" src
  | Overflow ->
    replace_first ~needle:"= struct\n"
      ~by:"= struct\n  val big = 99999999999999999999\n" src
  | Header -> replace_first ~needle:"structure " ~by:"structur " src

(* a fresh project on a fresh memory fs, with [broken] (file, breaker)
   edits applied — deterministic, so two calls give identical state *)
let project topology broken =
  let fs = Vfs.memory () in
  let p = Gen.create fs topology Gen.default_profile in
  let originals =
    List.map
      (fun f -> (f, Option.get (fs.Vfs.fs_read f)))
      (Gen.sources p)
  in
  List.iter
    (fun (file, kind) ->
      let src = Option.get (fs.Vfs.fs_read file) in
      fs.Vfs.fs_write file (apply_breaker kind src))
    broken;
  (fs, Driver.create fs, Gen.sources p, originals)

let sorted = List.sort String.compare
let check_files = Alcotest.(check (list string))

let failed_names stats = List.map fst stats.Driver.st_failed
let skipped_names stats = List.map fst stats.Driver.st_skipped

let rendered_diags stats =
  List.concat_map
    (fun (_, ds) -> List.map Diag.to_string ds)
    stats.Driver.st_failed

(* ------------------------------------------------------------------ *)
(* Basics: poison propagation on a chain                               *)
(* ------------------------------------------------------------------ *)

let test_chain_poison () =
  (* u0 <- u1 <- u2 <- u3; break u1: u0 builds, u1 fails, u2/u3 skip *)
  let _fs, mgr, sources, _ = project (Gen.Chain 4) [ ("u001.sml", Unbound) ] in
  let stats =
    Driver.build ~keep_going:true mgr ~policy:Driver.Cutoff ~sources
  in
  check_files "failed" [ "u001.sml" ] (failed_names stats);
  check_files "skipped" [ "u002.sml"; "u003.sml" ] (sorted (skipped_names stats));
  check_files "recompiled" [ "u000.sml" ] stats.Driver.st_recompiled;
  let ds = List.assoc "u001.sml" stats.Driver.st_failed in
  Alcotest.(check bool) "has diagnostics" true (ds <> []);
  Alcotest.(check string) "stable code" "E0302" (List.hd ds).Diag.code;
  Alcotest.(check string)
    "unit stamped" "u001.sml"
    (Option.value ~default:"?" (List.hd ds).Diag.unit_name);
  Alcotest.(check string) "outcome failed" "failed"
    (Driver.outcome_of stats "u001.sml");
  Alcotest.(check string) "outcome skipped" "skipped"
    (Driver.outcome_of stats "u003.sml");
  Alcotest.(check bool) "summary mentions failures" true
    (let line = Driver.summary_line stats in
     let contains ~sub s =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains ~sub:"1 failed" line && contains ~sub:"2 skipped" line)

(* Independent subgraphs still compile: fanout with broken dependents. *)
let test_independent_subgraphs () =
  (* Fanout 5: u0 base, u1..u5 depend only on u0 *)
  let _fs, mgr, sources, _ =
    project (Gen.Fanout 5)
      [ ("u001.sml", Unbound); ("u003.sml", Syntax); ("u005.sml", Lex) ]
  in
  let stats =
    Driver.build ~keep_going:true mgr ~policy:Driver.Timestamp ~sources
  in
  check_files "failed" [ "u001.sml"; "u003.sml"; "u005.sml" ]
    (sorted (failed_names stats));
  check_files "skipped" [] (skipped_names stats);
  check_files "unaffected units all compiled"
    [ "u000.sml"; "u002.sml"; "u004.sml" ]
    (sorted stats.Driver.st_recompiled);
  (* k broken units -> at least k structured diagnostics in ONE run *)
  Alcotest.(check bool) "at least 3 diagnostics" true
    (List.length (rendered_diags stats) >= 3);
  (* each broken unit contributed at least one diagnostic of its own *)
  List.iter
    (fun (file, ds) ->
      Alcotest.(check bool) (file ^ " has own diags") true (ds <> []))
    stats.Driver.st_failed

(* An out-of-range integer literal is one E0100 lexical error — not an
   escaped OCaml exception — and keep-going still builds the rest. *)
let test_int_literal_out_of_range () =
  let _fs, mgr, sources, _ = project (Gen.Chain 4) [ ("u001.sml", Overflow) ] in
  let stats =
    Driver.build ~keep_going:true mgr ~policy:Driver.Cutoff ~sources
  in
  check_files "failed" [ "u001.sml" ] (failed_names stats);
  check_files "skipped" [ "u002.sml"; "u003.sml" ] (sorted (skipped_names stats));
  check_files "recompiled" [ "u000.sml" ] stats.Driver.st_recompiled;
  (match List.assoc "u001.sml" stats.Driver.st_failed with
  | [ d ] ->
    Alcotest.(check string) "code" "E0100" d.Diag.code;
    Alcotest.(check string) "message" "integer literal out of range"
      d.Diag.message
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  let _fs, mgr, sources, _ = project (Gen.Chain 2) [ ("u001.sml", Overflow) ] in
  match Driver.build mgr ~policy:Driver.Cutoff ~sources with
  | _ -> Alcotest.fail "fail-fast build should raise"
  | exception (Diag.Error d | Diag.Errors (d :: _)) ->
    Alcotest.(check string) "fail-fast code" "E0100" d.Diag.code

(* Without keep_going the behaviour is unchanged: first serial error
   raises, independent of everything downstream. *)
let test_failfast_unchanged () =
  let _fs, mgr, sources, _ = project (Gen.Chain 3) [ ("u001.sml", Unbound) ] in
  match Driver.build mgr ~policy:Driver.Cutoff ~sources with
  | _ -> Alcotest.fail "fail-fast build should raise"
  | exception Diag.Error d ->
    Alcotest.(check string) "phase" "elaborate" (Diag.phase_id d.Diag.phase)
  | exception Diag.Errors (d :: _) ->
    Alcotest.(check string) "phase" "elaborate" (Diag.phase_id d.Diag.phase)
  | exception Diag.Errors [] -> Alcotest.fail "empty diagnostic batch"

(* ------------------------------------------------------------------ *)
(* Rerun after fix: recompile exactly failed + skipped                 *)
(* ------------------------------------------------------------------ *)

let rerun_after_fix policy =
  let _fs, mgr, sources, originals =
    project
      (Gen.Random_dag { units = 12; max_deps = 3; seed = 7 })
      [ ("u002.sml", Mismatch); ("u007.sml", Syntax) ]
  in
  let fs = _fs in
  let first = Driver.build ~keep_going:true mgr ~policy ~sources in
  Alcotest.(check bool) "something failed" true (first.Driver.st_failed <> []);
  (* restore the pristine sources of the broken units *)
  List.iter
    (fun file -> fs.Vfs.fs_write file (List.assoc file originals))
    (failed_names first);
  let second = Driver.build ~keep_going:true mgr ~policy ~sources in
  check_files "nothing fails after the fix" [] (failed_names second);
  check_files "nothing skipped after the fix" [] (skipped_names second);
  check_files "recompiled exactly failed+skipped"
    (sorted (failed_names first @ skipped_names first))
    (sorted second.Driver.st_recompiled)

let test_rerun_after_fix () =
  List.iter rerun_after_fix [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ]

(* ------------------------------------------------------------------ *)
(* Determinism: partitions and diagnostics are byte-identical under    *)
(* every backend and policy                                            *)
(* ------------------------------------------------------------------ *)

let keepgoing_build topology broken policy backend =
  let _fs, mgr, sources, _ = project topology broken in
  Driver.build ~backend ~keep_going:true mgr ~policy ~sources

let test_deterministic_across_backends () =
  List.iter
    (fun seed ->
      let topology = Gen.Random_dag { units = 14; max_deps = 4; seed } in
      let broken =
        [
          (Printf.sprintf "u%03d.sml" (seed mod 14), Unbound);
          (Printf.sprintf "u%03d.sml" ((seed + 5) mod 14), Syntax);
        ]
      in
      List.iter
        (fun policy ->
          let reference = keepgoing_build topology broken policy Driver.Serial in
          List.iter
            (fun backend ->
              let label =
                Printf.sprintf "seed %d, %s, %s" seed
                  (Driver.policy_name policy)
                  (Sched.backend_name backend)
              in
              let stats = keepgoing_build topology broken policy backend in
              check_files (label ^ ": failed") (failed_names reference)
                (failed_names stats);
              Alcotest.(check (list (pair string string)))
                (label ^ ": skipped (with culprits)")
                reference.Driver.st_skipped stats.Driver.st_skipped;
              check_files
                (label ^ ": recompiled")
                reference.Driver.st_recompiled stats.Driver.st_recompiled;
              Alcotest.(check (list string))
                (label ^ ": diagnostics byte-identical")
                (rendered_diags reference) (rendered_diags stats))
            [ Driver.Serial; Driver.Parallel 4 ])
        [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ])
    [ 3; 11; 29 ]

(* Random DAGs with random broken subsets: the failed partition is
   exactly the broken set, the union of partitions covers every unit,
   and fixing converges (property-style sweep over seeds). *)
let test_random_dag_partitions () =
  List.iter
    (fun seed ->
      let units = 8 + (seed mod 7) in
      let topology = Gen.Random_dag { units; max_deps = 3; seed } in
      let kinds = [| Unbound; Mismatch; Syntax; Lex |] in
      let broken =
        List.filteri (fun i _ -> (i * 7 + seed) mod 3 = 0)
          (List.init units (fun i -> i))
        |> List.map (fun i ->
               (Printf.sprintf "u%03d.sml" i, kinds.((i + seed) mod 4)))
      in
      if broken <> [] then begin
        let _fs, mgr, sources, _ = project topology broken in
        let stats =
          Driver.build ~backend:(Driver.Parallel 4) ~keep_going:true mgr
            ~policy:Driver.Cutoff ~sources
        in
        let label = Printf.sprintf "seed %d" seed in
        (* a broken unit downstream of another broken unit is skipped
           (never attempted), so: failed ⊆ broken, and every broken
           unit lands in failed or skipped — never in a built partition *)
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (label ^ ": " ^ f ^ " was broken") true
              (List.mem_assoc f broken))
          (failed_names stats);
        List.iter
          (fun (f, _) ->
            Alcotest.(check bool)
              (label ^ ": " ^ f ^ " failed or skipped") true
              (List.mem f (failed_names stats)
              || List.mem f (skipped_names stats)))
          broken;
        (* every unit is in exactly one partition *)
        check_files
          (label ^ ": partitions cover the DAG")
          (sorted stats.Driver.st_order)
          (sorted
             (stats.Driver.st_recompiled @ stats.Driver.st_loaded
            @ stats.Driver.st_cache_hits @ failed_names stats
            @ skipped_names stats));
        (* every skipped unit names a culprit that indeed failed *)
        List.iter
          (fun (_, culprit) ->
            Alcotest.(check bool)
              (label ^ ": culprit failed") true
              (List.mem culprit (failed_names stats)))
          stats.Driver.st_skipped
      end)
    [ 1; 2; 5; 8; 13; 21; 34 ]

(* ------------------------------------------------------------------ *)
(* Warnings: --warn-error and the per-unit error limit                 *)
(* ------------------------------------------------------------------ *)

let warn_src =
  "structure W = struct\n\
   fun f xs = case xs of nil => 0\n\
   end\n"

let test_werror () =
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "w.sml" warn_src;
  let mgr = Driver.create fs in
  let stats =
    Driver.build ~keep_going:true mgr ~policy:Driver.Cutoff
      ~sources:[ "w.sml" ]
  in
  check_files "warning alone does not fail" [] (failed_names stats);
  let fs2 = Vfs.memory () in
  fs2.Vfs.fs_write "w.sml" warn_src;
  let mgr2 = Driver.create fs2 in
  let stats2 =
    Driver.build ~keep_going:true ~werror:true mgr2 ~policy:Driver.Cutoff
      ~sources:[ "w.sml" ]
  in
  check_files "warn-error fails the unit" [ "w.sml" ] (failed_names stats2);
  let ds = List.assoc "w.sml" stats2.Driver.st_failed in
  Alcotest.(check string) "keeps the warning code" "W0001"
    (List.hd ds).Diag.code;
  Alcotest.(check string) "promoted to error" "error"
    (Diag.severity_name (List.hd ds).Diag.severity)

let test_max_errors () =
  let body =
    String.concat "\n"
      (List.init 10 (fun i -> Printf.sprintf "val x%d = kg_missing%d" i i))
  in
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "m.sml" ("structure M = struct\n" ^ body ^ "\nend\n");
  let mgr = Driver.create fs in
  let stats =
    Driver.build ~keep_going:true ~max_errors:3 mgr ~policy:Driver.Cutoff
      ~sources:[ "m.sml" ]
  in
  let ds = List.assoc "m.sml" stats.Driver.st_failed in
  (* 3 collected errors plus the E0001 "too many errors" sentinel *)
  Alcotest.(check int) "limit respected" 4 (List.length ds);
  Alcotest.(check string) "sentinel code" "E0001"
    (List.nth ds 3).Diag.code

(* ------------------------------------------------------------------ *)
(* JSON build report and linker diagnostics                            *)
(* ------------------------------------------------------------------ *)

let test_report_json_partitions () =
  let _fs, mgr, sources, _ = project (Gen.Chain 3) [ ("u001.sml", Unbound) ] in
  let stats =
    Driver.build ~keep_going:true mgr ~policy:Driver.Cutoff ~sources
  in
  match Driver.report_json stats with
  | Obs.Json.Obj fields ->
    let int_field name =
      match List.assoc name fields with
      | Obs.Json.Int n -> n
      | _ -> Alcotest.fail (name ^ " not an int")
    in
    Alcotest.(check int) "failed count" 1 (int_field "failed");
    Alcotest.(check int) "skipped count" 1 (int_field "skipped");
    (match List.assoc "diagnostics" fields with
    | Obs.Json.List (Obs.Json.Obj d :: _) ->
      Alcotest.(check bool) "diag has code" true (List.mem_assoc "code" d);
      Alcotest.(check bool) "diag has phase" true (List.mem_assoc "phase" d);
      (match List.assoc "severity" d with
      | Obs.Json.String s -> Alcotest.(check string) "severity" "error" s
      | _ -> Alcotest.fail "severity not a string")
    | _ -> Alcotest.fail "diagnostics missing or empty")
  | _ -> Alcotest.fail "report_json not an object"

let test_linker_diag_names_unit () =
  let session = Sepcomp.Compile.new_session () in
  let a =
    Sepcomp.Compile.compile session ~name:"a.sml"
      ~source:"structure KgA = struct val v = 1 end" ~imports:[]
  in
  let b =
    Sepcomp.Compile.compile session ~name:"b.sml"
      ~source:"structure KgB = struct val w = KgA.v + 1 end" ~imports:[ a ]
  in
  (* executing b without a in the dynamic environment is a link error
     that must carry the unit's name, not Loc.dummy alone *)
  match Sepcomp.Compile.execute b Link.Linker.empty with
  | _ -> Alcotest.fail "expected a link error"
  | exception Diag.Error d ->
    Alcotest.(check string) "phase" "link" (Diag.phase_id d.Diag.phase);
    Alcotest.(check string) "code" "E0601" d.Diag.code;
    Alcotest.(check string) "unit name" "b.sml"
      (Option.value ~default:"?" d.Diag.unit_name)

(* The warm dependency scan remembers only clean parses.  A source
   broken on a warm manager during a keep-going build (which scans it
   with a throwaway recovery parse) must still fail the next fail-fast
   build with the diagnostic the keep-going build reported, and fixing
   it must converge to a scratch build. *)
let test_keepgoing_break_then_failfast () =
  let policy = Driver.Cutoff and file = "u001.sml" in
  List.iter
    (fun kind ->
      let fs, mgr, sources, originals = project (Gen.Chain 3) [] in
      (* dependents first: a wrongly remembered scan of the broken unit
         would drop their edges to it and surface as a dependent's
         unbound-structure error instead of the unit's own *)
      let sources = List.rev sources in
      ignore (Driver.build mgr ~policy ~sources);
      fs.Vfs.fs_write file (apply_breaker kind (List.assoc file originals));
      let kg = Driver.build ~keep_going:true mgr ~policy ~sources in
      Alcotest.(check bool) "keep-going: failed" true
        (List.mem_assoc file kg.Driver.st_failed);
      let reported = Diag.to_string (List.hd (List.assoc file kg.Driver.st_failed)) in
      (* twice: a failed build must not have remembered the broken text *)
      for _ = 1 to 2 do
        match Driver.build mgr ~policy ~sources with
        | _ -> Alcotest.fail "fail-fast build of a broken source should raise"
        | exception (Diag.Error d | Diag.Errors (d :: _)) ->
          Alcotest.(check string) "fail-fast: same diagnostic" reported
            (Diag.to_string d)
      done;
      fs.Vfs.fs_write file (List.assoc file originals);
      let fixed = Driver.build mgr ~policy ~sources in
      check_files "fixed: nothing fails" [] (failed_names fixed);
      let scratch, scratch_mgr, _, _ = project (Gen.Chain 3) [] in
      ignore (Driver.build scratch_mgr ~policy ~sources);
      List.iter
        (fun f ->
          let bin fs = fs.Vfs.fs_read (f ^ ".bin") in
          Alcotest.(check (option string)) (f ^ ": bin equals scratch")
            (bin scratch) (bin fs))
        sources)
    [ Syntax; Lex; Header; Unbound ]

let suite =
  [
    Alcotest.test_case "chain: poison propagation" `Quick test_chain_poison;
    Alcotest.test_case "fanout: independent subgraphs build" `Quick
      test_independent_subgraphs;
    Alcotest.test_case "fail-fast behaviour unchanged" `Quick
      test_failfast_unchanged;
    Alcotest.test_case "rerun after fix recompiles failed+skipped" `Quick
      test_rerun_after_fix;
    Alcotest.test_case "partitions/diagnostics deterministic across backends"
      `Quick test_deterministic_across_backends;
    Alcotest.test_case "random DAGs: failed = broken, partitions cover" `Quick
      test_random_dag_partitions;
    Alcotest.test_case "warn-error promotes warnings" `Quick test_werror;
    Alcotest.test_case "max-errors bounds the collector" `Quick test_max_errors;
    Alcotest.test_case "report_json carries partitions and diagnostics" `Quick
      test_report_json_partitions;
    Alcotest.test_case "linker diagnostics name the unit" `Quick
      test_linker_diag_names_unit;
    Alcotest.test_case "keep-going break, then fail-fast, then fix" `Quick
      test_keepgoing_break_then_failfast;
    Alcotest.test_case "out-of-range integer literal: E0100" `Quick
      test_int_literal_out_of_range;
  ]
