(* Live relinking: every non-null swap is a clean restart (the replay
   equals a cold run, shared references included), transactional
   rollback (the swap-chaos harness), the epoch history, and the E0801 /
   E0601 boundary diagnostics. *)

module Driver = Irm.Driver
module Relink = Link.Relink
module Codeunit = Link.Codeunit
module Diag = Support.Diag
module Pid = Digestkit.Pid
module Symbol = Support.Symbol

(* A printing three-unit chain (base <- mid <- top) plus one
   independent unit.  [origin] flows into mid's and top's values, so an
   implementation edit to it reaches units whose bins cutoff keeps. *)
let base_src ?(origin = 10) tag =
  Printf.sprintf
    "structure Base = struct val origin = %d fun scale n = n * origin val p \
     = print \"B%s\" end"
    origin tag

let mid_src = "structure Mid = struct val v = Base.scale 2 val p = print \"M\" end"

let top_src =
  "structure Top = struct val result = Mid.v + Base.origin val p = print \
   (intToString result) end"

let solo_src = "structure Solo = struct val p = print \"S\" end"

let chain_files ?origin ?(tag = "") () =
  [
    ("base.sml", base_src ?origin tag);
    ("mid.sml", mid_src);
    ("top.sml", top_src);
    ("solo.sml", solo_src);
  ]

let sources = [ "base.sml"; "mid.sml"; "top.sml"; "solo.sml" ]

let setup files =
  let fs = Vfs.memory () in
  List.iter (fun (p, s) -> fs.Vfs.fs_write p s) files;
  (fs, Driver.create fs)

(* build (Cutoff, so impl edits don't cascade) and snapshot for the
   relinker *)
let snapshot ?(sources = sources) mgr =
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  (stats, Driver.link_snapshot mgr)

(* the first swap of an empty relinker establishes epoch 0 *)
let fresh_live ?(sources = sources) files =
  let fs, mgr = setup files in
  let _, units = snapshot ~sources mgr in
  let rl = Relink.create () in
  ignore (Relink.swap rl ~units);
  (fs, mgr, rl)

(* what a clean restart at [files] prints *)
let cold_output ?(sources = sources) files =
  let _, mgr = setup files in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  let buf = Buffer.create 32 in
  ignore (Driver.run ~output:(Buffer.add_string buf) mgr ~sources);
  Buffer.contents buf

let replay_output rl =
  let buf = Buffer.create 32 in
  Relink.replay rl ~output:(Buffer.add_string buf);
  Buffer.contents buf

let check_counters what rl ~null ~epoch ~rollbacks =
  let c = Relink.counters rl in
  Alcotest.(check (list int))
    what
    [ null; epoch; rollbacks ]
    [ c.Relink.c_null; c.Relink.c_epoch; c.Relink.c_rollbacks ]

exception Crash of string

let check_epoch_bump what (o : Relink.outcome) ~epoch =
  Alcotest.(check bool) (what ^ ": epoch kind") true
    (o.Relink.o_kind = Relink.Epoch_bump);
  Alcotest.(check int) (what ^ ": epoch") epoch o.Relink.o_epoch

(* ------------------------------------------------------------------ *)
(* Swaps are clean restarts                                            *)
(* ------------------------------------------------------------------ *)

let test_baseline_replay_matches_run () =
  let files = chain_files () in
  let _, mgr = setup files in
  let _, units = snapshot mgr in
  let rl = Relink.create () in
  Alcotest.(check bool) "empty" false (Relink.live rl);
  check_epoch_bump "first swap" (Relink.swap rl ~units) ~epoch:0;
  Alcotest.(check bool) "live" true (Relink.live rl);
  (match Relink.epochs rl with
  | [ e ] -> Alcotest.(check string) "cause" "baseline" e.Relink.ei_cause
  | eps -> Alcotest.failf "expected 1 epoch, got %d" (List.length eps));
  Alcotest.(check string) "replay = cold restart" (cold_output files)
    (replay_output rl)

(* a function one unit defines, called by another unit's top-level
   code, prints into the caller's output, before and after the caller is
   swapped *)
let test_cross_unit_print () =
  let sources = [ "say.sml"; "use.sml" ] in
  let files tag =
    [
      ( "say.sml",
        "structure Say = struct val p = print \"A\" fun say s = print s end" );
      ( "use.sml",
        Printf.sprintf
          "structure Use = struct val p = Say.say \"hi%s\" val q = print \
           \"B\" end"
          tag );
    ]
  in
  let fs, mgr, rl = fresh_live ~sources (files "") in
  Alcotest.(check string) "cold run" "AhiB" (cold_output ~sources (files ""));
  Alcotest.(check string) "replay = cold restart" "AhiB" (replay_output rl);
  fs.Vfs.fs_write "use.sml" (List.assoc "use.sml" (files "!"));
  let _, units = snapshot ~sources mgr in
  check_epoch_bump "caller edited" (Relink.swap rl ~units) ~epoch:1;
  Alcotest.(check string) "replay = cold restart at new"
    (cold_output ~sources (files "!"))
    (replay_output rl)

let test_null_swap () =
  let _, mgr, rl = fresh_live (chain_files ()) in
  let _, units = snapshot mgr in
  let o = Relink.swap rl ~units in
  Alcotest.(check bool) "null kind" true (o.Relink.o_kind = Relink.Null);
  Alcotest.(check int) "same epoch" 0 o.Relink.o_epoch;
  check_counters "counters" rl ~null:1 ~epoch:1 ~rollbacks:0

(* the cutoff probe: [origin] keeps Base's interface pid, so only base
   recompiles — but mid's and top's values are functions of it, and the
   swap must print what a cold restart prints *)
let test_pid_stable_swap_matches_cold_restart () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  Alcotest.(check string) "baseline" "BM30S" (replay_output rl);
  fs.Vfs.fs_write "base.sml" (base_src ~origin:11 "");
  let stats, units = snapshot mgr in
  Alcotest.(check (list string))
    "cutoff recompiles only base" [ "base.sml" ] stats.Driver.st_recompiled;
  check_epoch_bump "pid-stable edit" (Relink.swap rl ~units) ~epoch:1;
  Alcotest.(check string) "cold restart" "BM33S"
    (cold_output (chain_files ~origin:11 ()));
  Alcotest.(check string) "replay = cold restart at new" "BM33S"
    (replay_output rl);
  (match Relink.epochs rl with
  | e1 :: _ ->
    Alcotest.(check string) "cause names the rebuilt unit"
      "rebuilt [base.sml]" e1.Relink.ei_cause
  | [] -> Alcotest.fail "no epochs");
  check_counters "counters" rl ~null:0 ~epoch:2 ~rollbacks:0

(* the importing cone of an interface edit is relinked — as part of
   every unit, since a swap is a clean restart: the epoch's cause names
   the rebuilt cone, and every unit's top-level print is replayed *)
let test_epoch_swap_relinks_the_importing_cone () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  (* interface edit: Base gains an exported binding *)
  let edited =
    "structure Base = struct val origin = 10 val extra = 1 fun scale n = n * \
     origin val p = print \"B\" end"
  in
  fs.Vfs.fs_write "base.sml" edited;
  let stats, units = snapshot mgr in
  check_epoch_bump "interface edit" (Relink.swap rl ~units) ~epoch:1;
  Alcotest.(check (list string))
    "the rebuild cone" [ "base.sml"; "mid.sml"; "top.sml" ]
    (List.sort compare stats.Driver.st_recompiled);
  (match Relink.epochs rl with
  | e1 :: _ ->
    Alcotest.(check string) "cause names the rebuilt cone"
      "rebuilt [base.sml, mid.sml, top.sml]" e1.Relink.ei_cause
  | [] -> Alcotest.fail "no epochs");
  Alcotest.(check string) "every unit re-executed"
    (cold_output (("base.sml", edited) :: List.remove_assoc "base.sml" (chain_files ())))
    (replay_output rl);
  check_counters "counters" rl ~null:0 ~epoch:2 ~rollbacks:0

let test_epoch_swap_matches_cold_restart () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  let edited =
    "structure Base = struct val origin = 11 val extra = 1 fun scale n = n * \
     origin val p = print \"B2\" end"
  in
  fs.Vfs.fs_write "base.sml" edited;
  let _, units = snapshot mgr in
  let _ = Relink.swap rl ~units in
  Alcotest.(check string)
    "replay = cold restart at new"
    (cold_output
       [
         ("base.sml", edited);
         ("mid.sml", mid_src);
         ("top.sml", top_src);
         ("solo.sml", solo_src);
       ])
    (replay_output rl)

(* a [ref] shared through an unchanged export: A allocates it, B assigns
   it, C (which imports only A) prints it.  Editing B must reach C's
   output under a pid-stable edit and under an interface edit alike. *)
let shared_sources = [ "a.sml"; "b.sml"; "c.sml" ]

let shared_files b_src =
  [
    ("a.sml", "structure A = struct val r = ref 0 end");
    ("b.sml", b_src);
    ("c.sml", "structure C = struct val p = print (intToString (!A.r)) end");
  ]

let assign n = Printf.sprintf "structure B = struct val () = A.r := %d end" n

let test_shared_ref () =
  let sources = shared_sources in
  let fs, mgr, rl = fresh_live ~sources (shared_files (assign 5)) in
  Alcotest.(check string) "baseline" "5" (replay_output rl);
  (* pid-stable edit to B *)
  fs.Vfs.fs_write "b.sml" (assign 6);
  let stats, units = snapshot ~sources mgr in
  Alcotest.(check (list string))
    "cutoff recompiles only b" [ "b.sml" ] stats.Driver.st_recompiled;
  (* crash the swap after B's assignment ran: the prior epoch, which
     printed 5, keeps serving *)
  (match
     Relink.swap rl
       ~on_step:(fun s -> if s = "commit" then raise (Crash s))
       ~units
   with
  | _ -> Alcotest.fail "crash did not surface"
  | exception Crash _ -> ());
  Alcotest.(check string) "prior epoch serves" "5" (replay_output rl);
  check_epoch_bump "pid-stable edit" (Relink.swap rl ~units) ~epoch:1;
  Alcotest.(check string) "cold restart" "6"
    (cold_output ~sources (shared_files (assign 6)));
  Alcotest.(check string) "replay = cold restart" "6" (replay_output rl);
  (* interface edit to B *)
  let b7 = "structure B = struct val () = A.r := 7 val extra = 1 end" in
  fs.Vfs.fs_write "b.sml" b7;
  let _, units = snapshot ~sources mgr in
  check_epoch_bump "interface edit" (Relink.swap rl ~units) ~epoch:2;
  Alcotest.(check string) "cold restart" "7"
    (cold_output ~sources (shared_files b7));
  Alcotest.(check string) "replay = cold restart" "7" (replay_output rl)

(* a unit raising (or calling exit) mid-swap rolls back and hands back
   the output printed before it *)
let test_program_failure_rolls_back () =
  let sources = [ "say.sml"; "boom.sml" ] in
  let files boom =
    [
      ("say.sml", "structure Say = struct val p = print \"A\" end");
      ("boom.sml", Printf.sprintf "structure Boom = struct val () = %s end" boom);
    ]
  in
  let fs, mgr = setup (files "print \"B\"") in
  let _, units = snapshot ~sources mgr in
  let rl = Relink.create () in
  ignore (Relink.swap rl ~units);
  List.iteri
    (fun i (boom, expect) ->
      fs.Vfs.fs_write "boom.sml" (List.assoc "boom.sml" (files boom));
      let _, units = snapshot ~sources mgr in
      (match Relink.swap rl ~units with
      | _ -> Alcotest.failf "%s: expected a program failure" boom
      | exception Relink.Program_failed { output; cause } ->
        Alcotest.(check string) (boom ^ ": partial output") "A" output;
        Alcotest.(check bool) (boom ^ ": cause") true (expect cause));
      Alcotest.(check int) (boom ^ ": still epoch 0") 0 (Relink.current_epoch rl);
      Alcotest.(check string) (boom ^ ": prior epoch serves") "AB"
        (replay_output rl);
      Alcotest.(check int) (boom ^ ": rollback counted") (i + 1)
        (Relink.counters rl).Relink.c_rollbacks)
    [
      ("raise Fail \"no\"", function Relink.Raised _ -> true | _ -> false);
      ("exit 3", function Relink.Exited 3 -> true | _ -> false);
    ];
  (* the first swap of an empty relinker rolls back the same way *)
  let rl = Relink.create () in
  (match Relink.swap rl ~units:(snd (snapshot ~sources mgr)) with
  | _ -> Alcotest.fail "expected a program failure"
  | exception Relink.Program_failed { output; _ } ->
    Alcotest.(check string) "partial output" "A" output);
  Alcotest.(check bool) "still empty" false (Relink.live rl);
  Alcotest.(check int) "rollback counted" 1
    (Relink.counters rl).Relink.c_rollbacks

(* the snapshot digests each distinct bin once *)
let test_snapshot_fingerprints_memoized () =
  let fs, mgr = setup (chain_files ()) in
  let _, first = snapshot mgr in
  let again = Driver.link_snapshot mgr in
  let _, after_null_build = snapshot mgr in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) (a.Relink.u_name ^ ": same fingerprint") true
        (a.Relink.u_fingerprint == b.Relink.u_fingerprint))
    first again;
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (a.Relink.u_name ^ ": same fingerprint after a null build")
        true
        (a.Relink.u_fingerprint == b.Relink.u_fingerprint))
    first after_null_build;
  fs.Vfs.fs_write "solo.sml" "structure Solo = struct val p = print \"T\" end";
  let _, edited = snapshot mgr in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (a.Relink.u_name ^ ": fingerprint moves iff the bin did")
        (a.Relink.u_name <> "solo.sml")
        (String.equal a.Relink.u_fingerprint b.Relink.u_fingerprint))
    first edited

(* ------------------------------------------------------------------ *)
(* Epoch history                                                       *)
(* ------------------------------------------------------------------ *)

let bump fs mgr rl n =
  fs.Vfs.fs_write "base.sml"
    (Printf.sprintf
       "structure Base = struct val origin = 10 val extra%d = %d fun scale n \
        = n * origin val p = print \"B\" end"
       n n);
  let _, units = snapshot mgr in
  Relink.swap rl ~units

let test_bounded_history () =
  let files = chain_files () in
  let fs, mgr = setup files in
  let _, units = snapshot mgr in
  let rl = Relink.create () in
  ignore (Relink.swap rl ~units);
  for n = 1 to 6 do
    ignore (bump fs mgr rl n)
  done;
  let eps = Relink.epochs rl in
  Alcotest.(check (list int)) "newest first, current + 4 retired"
    [ 6; 5; 4; 3; 2 ]
    (List.map (fun e -> e.Relink.ei_id) eps);
  Alcotest.(check (list string)) "states"
    [ "current"; "retired"; "retired"; "retired"; "retired" ]
    (List.map (fun e -> e.Relink.ei_state) eps)

(* ------------------------------------------------------------------ *)
(* Boundary diagnostics                                                *)
(* ------------------------------------------------------------------ *)

let state_fingerprint rl =
  (Relink.current_epoch rl, replay_output rl, List.length (Relink.epochs rl))

let test_seal_violation_E0801 () =
  let _, mgr, rl = fresh_live (chain_files ()) in
  let before = state_fingerprint rl in
  let _, units = snapshot mgr in
  (* tamper: solo (which nobody imports) claims its interface pid is
     unchanged, but its exported surface maps to different pids —
     opaque ascription broken at the swap boundary *)
  let units =
    List.map
      (fun u ->
        if String.equal u.Relink.u_name "solo.sml" then
          let cu = u.Relink.u_cu in
          {
            u with
            Relink.u_fingerprint = "tampered";
            u_cu =
              {
                cu with
                Codeunit.cu_exports =
                  List.map
                    (fun (sym, _) -> (sym, Pid.intrinsic "smuggled"))
                    cu.Codeunit.cu_exports;
              };
          }
        else u)
      units
  in
  (match Diag.guard (fun () -> Relink.swap rl ~units) with
  | Error d ->
    Alcotest.(check string) "E0801" "E0801" d.Diag.code;
    Alcotest.(check bool) "link phase" true (d.Diag.phase = Diag.Link)
  | Ok _ -> Alcotest.fail "expected a seal violation");
  Alcotest.(check bool)
    "rolled back to the prior state" true
    (state_fingerprint rl = before);
  Alcotest.(check int) "rollback counted" 1 (Relink.counters rl).Relink.c_rollbacks

let test_unsatisfied_import_E0601 () =
  let _, mgr, rl = fresh_live (chain_files ()) in
  let before = state_fingerprint rl in
  let _, units = snapshot mgr in
  (* drop a provider: mid still imports Base's export pid *)
  let units =
    List.filter (fun u -> not (String.equal u.Relink.u_name "base.sml")) units
  in
  (match Diag.guard (fun () -> Relink.swap rl ~units) with
  | Error d ->
    Alcotest.(check string) "E0601" "E0601" d.Diag.code;
    Alcotest.(check (option string)) "names the importer" (Some "mid.sml")
      d.Diag.unit_name;
    Alcotest.(check bool) "link phase" true (d.Diag.phase = Diag.Link)
  | Ok _ -> Alcotest.fail "expected an unsatisfied import");
  Alcotest.(check bool)
    "rolled back to the prior state" true
    (state_fingerprint rl = before);
  Alcotest.(check int) "rollback counted" 1 (Relink.counters rl).Relink.c_rollbacks

(* ------------------------------------------------------------------ *)
(* The swap-chaos harness                                              *)
(* ------------------------------------------------------------------ *)

let steps = [ "begin"; "stage"; "verify"; "seal"; "commit" ]

(* crash or abort a swap at every transaction step, for both edit
   kinds and both abort mechanisms: afterwards the replay must equal a
   clean restart at the old state, and a clean retry must land it at
   the new state — never a hybrid *)
let chaos ~edit ~edited_files () =
  List.iter
    (fun mechanism ->
      List.iteri
        (fun i step_name ->
          let files = chain_files () in
          let fs, mgr, rl = fresh_live files in
          let old_cold = cold_output files in
          fs.Vfs.fs_write "base.sml" edit;
          let _, units = snapshot mgr in
          (match mechanism with
          | `Crash -> (
            match
              Relink.swap rl
                ~on_step:(fun s ->
                  if String.equal s step_name then raise (Crash s))
                ~units
            with
            | _ -> Alcotest.failf "crash at %s did not surface" step_name
            | exception Crash s ->
              Alcotest.(check string) "crashed where injected" step_name s)
          | `Abort -> (
            let calls = ref 0 in
            match
              Relink.swap rl
                ~abort_check:(fun () ->
                  incr calls;
                  if !calls = i + 1 then Some ("client gone at " ^ step_name)
                  else None)
                ~units
            with
            | _ -> Alcotest.failf "abort at %s did not surface" step_name
            | exception Relink.Swap_aborted reason ->
              Alcotest.(check string)
                "aborted where injected"
                ("client gone at " ^ step_name)
                reason));
          Alcotest.(check int)
            (step_name ^ ": rollback counted")
            1
            (Relink.counters rl).Relink.c_rollbacks;
          Alcotest.(check string)
            (step_name ^ ": replay = clean restart at old")
            old_cold (replay_output rl);
          (* the same swap, retried cleanly, lands at the new state *)
          let _, units = snapshot mgr in
          let _ = Relink.swap rl ~units in
          Alcotest.(check string)
            (step_name ^ ": retry = clean restart at new")
            (cold_output edited_files) (replay_output rl))
        steps)
    [ `Crash; `Abort ]

let impl_edit = base_src ~origin:12 "!"

let iface_edit =
  "structure Base = struct val origin = 10 val extra = 1 fun scale n = n * \
   origin val p = print \"B\" end"

let test_chaos_impl_swap () =
  chaos ~edit:impl_edit
    ~edited_files:
      [
        ("base.sml", impl_edit);
        ("mid.sml", mid_src);
        ("top.sml", top_src);
        ("solo.sml", solo_src);
      ]
    ()

let test_chaos_epoch_swap () =
  chaos ~edit:iface_edit
    ~edited_files:
      [
        ("base.sml", iface_edit);
        ("mid.sml", mid_src);
        ("top.sml", top_src);
        ("solo.sml", solo_src);
      ]
    ()

let test_watchdog () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  let before = state_fingerprint rl in
  fs.Vfs.fs_write "base.sml" impl_edit;
  let _, units = snapshot mgr in
  (match Relink.swap rl ~budget_s:(-1.) ~units with
  | _ -> Alcotest.fail "expected the watchdog to abort"
  | exception Relink.Swap_aborted reason ->
    Alcotest.(check bool)
      "watchdog named" true
      (String.length reason >= 8 && String.sub reason 0 8 = "watchdog"));
  Alcotest.(check bool)
    "rolled back" true
    (state_fingerprint rl = before)

(* the watchdog is opt-in: a swap whose staging outlasts a budget
   aborts only when that budget is passed *)
let test_watchdog_opt_in () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  fs.Vfs.fs_write "base.sml" impl_edit;
  let _, units = snapshot mgr in
  let slow_stage s = if s = "stage" then Unix.sleepf 0.1 in
  (match Relink.swap rl ~on_step:slow_stage ~budget_s:0.02 ~units with
  | _ -> Alcotest.fail "expected the watchdog to abort"
  | exception Relink.Swap_aborted _ -> ());
  check_epoch_bump "no budget, no deadline"
    (Relink.swap rl ~on_step:slow_stage ~units)
    ~epoch:1;
  check_counters "counters" rl ~null:0 ~epoch:2 ~rollbacks:1

(* a seeded random walk: edits (impl or interface; impl edits also
   move [origin], which flows into units cutoff keeps), half of them
   crashed at a random step — after every operation the replay must
   equal a clean restart at the accepted source state *)
let test_chaos_random_walk () =
  let rng = Random.State.make [| 0x5ead |] in
  let files = ref (chain_files ()) in
  let fs, mgr, rl = fresh_live !files in
  let impl_tag = ref 0 and iface_n = ref 0 in
  for _ = 1 to 20 do
    let proposed =
      if Random.State.bool rng then begin
        incr impl_tag;
        Printf.sprintf
          "structure Base = struct val origin = %d%s fun scale n = n * origin \
           val p = print \"B%d\" end"
          (10 + !impl_tag)
          (if !iface_n > 0 then
             Printf.sprintf " val extra%d = %d" !iface_n !iface_n
           else "")
          !impl_tag
      end
      else begin
        incr iface_n;
        Printf.sprintf
          "structure Base = struct val origin = %d val extra%d = %d fun scale \
           n = n * origin val p = print \"B%d\" end"
          (10 + !impl_tag) !iface_n !iface_n !impl_tag
      end
    in
    fs.Vfs.fs_write "base.sml" proposed;
    let _, units = snapshot mgr in
    if Random.State.bool rng then begin
      (* crash at a random step; the proposal is rejected *)
      let at = List.nth steps (Random.State.int rng (List.length steps)) in
      match
        Relink.swap rl
          ~on_step:(fun s -> if String.equal s at then raise (Crash s))
          ~units
      with
      | _ -> Alcotest.fail "injected crash did not surface"
      | exception Crash _ -> ()
    end
    else begin
      ignore (Relink.swap rl ~units);
      files := ("base.sml", proposed) :: List.remove_assoc "base.sml" !files
    end;
    Alcotest.(check string)
      "replay = clean restart at the accepted state"
      (cold_output !files) (replay_output rl)
  done

let suite =
  [
    Alcotest.test_case "baseline replay = cold restart" `Quick
      test_baseline_replay_matches_run;
    Alcotest.test_case "cross-unit print = cold restart" `Quick
      test_cross_unit_print;
    Alcotest.test_case "null swap" `Quick test_null_swap;
    Alcotest.test_case "pid-stable swap = cold restart" `Quick
      test_pid_stable_swap_matches_cold_restart;
    Alcotest.test_case "epoch swap relinks the importing cone" `Quick
      test_epoch_swap_relinks_the_importing_cone;
    Alcotest.test_case "epoch swap = cold restart" `Quick
      test_epoch_swap_matches_cold_restart;
    Alcotest.test_case "shared ref: swap = cold restart" `Quick
      test_shared_ref;
    Alcotest.test_case "program failure rolls back" `Quick
      test_program_failure_rolls_back;
    Alcotest.test_case "snapshot digests each bin once" `Quick
      test_snapshot_fingerprints_memoized;
    Alcotest.test_case "bounded epoch history" `Quick test_bounded_history;
    Alcotest.test_case "E0801 seal violation rolls back" `Quick
      test_seal_violation_E0801;
    Alcotest.test_case "E0601 unsatisfied import rolls back" `Quick
      test_unsatisfied_import_E0601;
    Alcotest.test_case "chaos: impl swap" `Quick test_chaos_impl_swap;
    Alcotest.test_case "chaos: epoch swap" `Quick test_chaos_epoch_swap;
    Alcotest.test_case "watchdog budget aborts" `Quick test_watchdog;
    Alcotest.test_case "no budget, no watchdog" `Quick test_watchdog_opt_in;
    Alcotest.test_case "chaos: seeded random walk" `Quick
      test_chaos_random_walk;
  ]
