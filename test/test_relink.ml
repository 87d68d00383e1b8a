(* Live relinking: swap classification, cone attribution, transactional
   rollback (the swap-chaos harness), epoch lifecycle, and the E0801 /
   E0802 boundary diagnostics. *)

module Driver = Irm.Driver
module Relink = Link.Relink
module Codeunit = Link.Codeunit
module Diag = Support.Diag
module Pid = Digestkit.Pid
module Symbol = Support.Symbol

(* A printing three-unit chain (base <- mid <- top) plus one
   independent unit, so cone attribution is observable both ways. *)
let base_src tag =
  Printf.sprintf
    "structure Base = struct val origin = 10 fun scale n = n * origin val p \
     = print \"B%s\" end"
    tag

let mid_src = "structure Mid = struct val v = Base.scale 2 val p = print \"M\" end"

let top_src =
  "structure Top = struct val result = Mid.v + Base.origin val p = print \
   (intToString result) end"

let solo_src = "structure Solo = struct val p = print \"S\" end"

let chain_files ?(tag = "") () =
  [
    ("base.sml", base_src tag);
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

let fresh_live files =
  let fs, mgr = setup files in
  let _, units = snapshot mgr in
  let rl = Relink.create () in
  Relink.baseline rl ~units;
  (fs, mgr, rl)

(* what a clean restart at [files] prints *)
let cold_output ?(sources = sources) files =
  let _, mgr = setup files in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  let buf = Buffer.create 32 in
  ignore (Driver.run ~output:(Buffer.add_string buf) mgr ~sources);
  Buffer.contents buf

let replay_output rl =
  let p = Relink.pin rl in
  let buf = Buffer.create 32 in
  Relink.replay p ~output:(Buffer.add_string buf);
  Relink.unpin rl p;
  Buffer.contents buf

let check_counters what rl ~null ~impl ~epoch ~rollbacks =
  let c = Relink.counters rl in
  Alcotest.(check (list int))
    what
    [ null; impl; epoch; rollbacks ]
    [ c.Relink.c_null; c.Relink.c_impl; c.Relink.c_epoch; c.Relink.c_rollbacks ]

(* ------------------------------------------------------------------ *)
(* Classification and attribution                                      *)
(* ------------------------------------------------------------------ *)

let test_baseline_replay_matches_run () =
  let files = chain_files () in
  let _, _, rl = fresh_live files in
  Alcotest.(check bool) "live" true (Relink.live rl);
  Alcotest.(check int) "epoch 0" 0 (Relink.current_epoch rl);
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
  let fs, mgr = setup (files "") in
  let _, units = snapshot ~sources mgr in
  let rl = Relink.create () in
  Relink.baseline rl ~units;
  Alcotest.(check string) "cold run" "AhiB" (cold_output ~sources (files ""));
  Alcotest.(check string) "replay = cold restart" "AhiB" (replay_output rl);
  fs.Vfs.fs_write "use.sml" (List.assoc "use.sml" (files "!"));
  let _, units = snapshot ~sources mgr in
  let o = Relink.swap rl ~units in
  Alcotest.(check (list string))
    "only the caller" [ "use.sml" ] o.Relink.o_relinked;
  Alcotest.(check string) "replay = cold restart at new"
    (cold_output ~sources (files "!"))
    (replay_output rl)

let test_null_swap () =
  let _, mgr, rl = fresh_live (chain_files ()) in
  let _, units = snapshot mgr in
  let o = Relink.swap rl ~units in
  Alcotest.(check bool) "null kind" true (o.Relink.o_kind = Relink.Null);
  Alcotest.(check int) "same epoch" 0 o.Relink.o_epoch;
  Alcotest.(check (list string)) "nothing relinked" [] o.Relink.o_relinked;
  check_counters "counters" rl ~null:1 ~impl:0 ~epoch:0 ~rollbacks:0

let test_impl_swap_relinks_exactly_the_unit () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  (* implementation edit confined to base's own output *)
  fs.Vfs.fs_write "base.sml" (base_src "!");
  let stats, units = snapshot mgr in
  Alcotest.(check (list string))
    "cutoff recompiles only base" [ "base.sml" ] stats.Driver.st_recompiled;
  let o = Relink.swap rl ~units in
  Alcotest.(check bool) "impl kind" true (o.Relink.o_kind = Relink.Impl);
  Alcotest.(check int) "epoch unchanged" 0 o.Relink.o_epoch;
  Alcotest.(check (list string))
    "exactly the edited unit" [ "base.sml" ] o.Relink.o_relinked;
  (* cutoff left dependents' bins untouched, the edit changed only
     base's own print — so the swapped state reads like a clean restart *)
  Alcotest.(check string)
    "replay = cold restart at new"
    (cold_output (chain_files ~tag:"!" ()))
    (replay_output rl);
  check_counters "counters" rl ~null:0 ~impl:1 ~epoch:0 ~rollbacks:0

let test_epoch_swap_relinks_the_importing_cone () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  (* interface edit: Base gains an exported binding *)
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 10 val extra = 1 fun scale n = n * \
     origin val p = print \"B\" end";
  let stats, units = snapshot mgr in
  let o = Relink.swap rl ~units in
  Alcotest.(check bool) "epoch kind" true (o.Relink.o_kind = Relink.Epoch_bump);
  Alcotest.(check int) "epoch bumped" 1 o.Relink.o_epoch;
  Alcotest.(check (list string))
    "the importing cone, not the independent unit"
    [ "base.sml"; "mid.sml"; "top.sml" ]
    (List.sort compare o.Relink.o_relinked);
  (* attribution cross-check: the relinked set is exactly what the
     build itself recompiled for this interface change *)
  Alcotest.(check (list string))
    "matches the rebuild cone"
    (List.sort compare stats.Driver.st_recompiled)
    (List.sort compare o.Relink.o_relinked);
  check_counters "counters" rl ~null:0 ~impl:0 ~epoch:1 ~rollbacks:0

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

let test_mid_cone_excludes_base () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  fs.Vfs.fs_write "mid.sml"
    "structure Mid = struct val v = Base.scale 2 val extra = 1 val p = print \
     \"M\" end";
  let _, units = snapshot mgr in
  let o = Relink.swap rl ~units in
  Alcotest.(check bool) "epoch kind" true (o.Relink.o_kind = Relink.Epoch_bump);
  Alcotest.(check (list string))
    "only mid's importers" [ "mid.sml"; "top.sml" ]
    (List.sort compare o.Relink.o_relinked)

(* ------------------------------------------------------------------ *)
(* Epoch lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

let bump fs mgr rl n =
  fs.Vfs.fs_write "base.sml"
    (Printf.sprintf
       "structure Base = struct val origin = 10 val extra%d = %d fun scale n \
        = n * origin val p = print \"B\" end"
       n n);
  let _, units = snapshot mgr in
  Relink.swap rl ~units

let test_pin_survives_epoch_swap () =
  let fs, mgr, rl = fresh_live (chain_files ()) in
  let before = replay_output rl in
  let p = Relink.pin rl in
  let _ = bump fs mgr rl 1 in
  Alcotest.(check int) "pin names old epoch" 0 (Relink.pinned_epoch p);
  let buf = Buffer.create 32 in
  Relink.replay p ~output:(Buffer.add_string buf);
  Alcotest.(check string) "pinned replay undisturbed" before
    (Buffer.contents buf);
  (match Relink.epochs rl with
  | [ e1; e0 ] ->
    Alcotest.(check int) "current is 1" 1 e1.Relink.ei_id;
    Alcotest.(check string) "old drains" "draining" e0.Relink.ei_state;
    Alcotest.(check int) "one pin" 1 e0.Relink.ei_pins
  | eps -> Alcotest.failf "expected 2 epochs, got %d" (List.length eps));
  Relink.unpin rl p;
  match Relink.epochs rl with
  | [ _; e0 ] ->
    Alcotest.(check string) "drained epoch retires" "retired"
      e0.Relink.ei_state;
    Alcotest.(check int) "retired env dropped" 0 e0.Relink.ei_units
  | eps -> Alcotest.failf "expected 2 epochs, got %d" (List.length eps)

let test_bounded_history () =
  let files = chain_files () in
  let fs, mgr = setup files in
  let _, units = snapshot mgr in
  let rl = Relink.create ~history:2 () in
  Relink.baseline rl ~units;
  for n = 1 to 5 do
    ignore (bump fs mgr rl n)
  done;
  let eps = Relink.epochs rl in
  Alcotest.(check bool)
    "history bounded to current + 2" true
    (List.length eps <= 3);
  match eps with
  | cur :: _ -> Alcotest.(check int) "newest first" 5 cur.Relink.ei_id
  | [] -> Alcotest.fail "no epochs"

(* ------------------------------------------------------------------ *)
(* Boundary diagnostics                                                *)
(* ------------------------------------------------------------------ *)

let state_fingerprint rl =
  (Relink.current_epoch rl, replay_output rl, List.length (Relink.epochs rl))

let test_seal_violation_E0801 () =
  let _, mgr, rl = fresh_live (chain_files ()) in
  let before = state_fingerprint rl in
  let _, units = snapshot mgr in
  (* tamper: base claims its interface pid is unchanged, but its
     exported surface maps to different pids — opaque ascription
     broken at the swap boundary *)
  let units =
    List.map
      (fun u ->
        if String.equal u.Relink.u_name "base.sml" then
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

let test_relink_conflict_E0802 () =
  let _, mgr, rl = fresh_live (chain_files ()) in
  let before = state_fingerprint rl in
  let _, units = snapshot mgr in
  (* drop a provider: mid still records its import of Base's export pid *)
  let units =
    List.filter (fun u -> not (String.equal u.Relink.u_name "base.sml")) units
  in
  (match Diag.guard (fun () -> Relink.swap rl ~units) with
  | Error d ->
    Alcotest.(check string) "E0802" "E0802" d.Diag.code;
    Alcotest.(check bool) "link phase" true (d.Diag.phase = Diag.Link)
  | Ok _ -> Alcotest.fail "expected a relink conflict");
  Alcotest.(check bool)
    "rolled back to the prior state" true
    (state_fingerprint rl = before);
  Alcotest.(check int) "rollback counted" 1 (Relink.counters rl).Relink.c_rollbacks

(* ------------------------------------------------------------------ *)
(* The swap-chaos harness                                              *)
(* ------------------------------------------------------------------ *)

exception Crash of string

let steps = [ "begin"; "stage"; "verify"; "seal"; "commit" ]

(* crash or abort a swap at every transaction step, for both swap
   kinds and both abort mechanisms: afterwards the dynenv must equal a
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
            (step_name ^ ": dynenv = clean restart at old")
            old_cold (replay_output rl);
          (* the same swap, retried cleanly, lands at the new state *)
          let _, units = snapshot mgr in
          let _ = Relink.swap rl ~units in
          Alcotest.(check string)
            (step_name ^ ": retry = clean restart at new")
            (cold_output edited_files) (replay_output rl))
        steps)
    [ `Crash; `Abort ]

let impl_edit = base_src "!"

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

(* a seeded random walk: edits (impl or interface), half of them
   crashed at a random step — after every operation the live dynenv
   must equal a clean restart at the accepted source state *)
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
          "structure Base = struct val origin = 10%s fun scale n = n * origin \
           val p = print \"B%d\" end"
          (if !iface_n > 0 then
             Printf.sprintf " val extra%d = %d" !iface_n !iface_n
           else "")
          !impl_tag
      end
      else begin
        incr iface_n;
        Printf.sprintf
          "structure Base = struct val origin = 10 val extra%d = %d fun scale \
           n = n * origin val p = print \"B%d\" end"
          !iface_n !iface_n !impl_tag
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
      "dynenv = clean restart at the accepted state"
      (cold_output !files) (replay_output rl)
  done

let suite =
  [
    Alcotest.test_case "baseline replay = cold restart" `Quick
      test_baseline_replay_matches_run;
    Alcotest.test_case "cross-unit print = cold restart" `Quick
      test_cross_unit_print;
    Alcotest.test_case "null swap" `Quick test_null_swap;
    Alcotest.test_case "impl swap relinks exactly the unit" `Quick
      test_impl_swap_relinks_exactly_the_unit;
    Alcotest.test_case "epoch swap relinks the importing cone" `Quick
      test_epoch_swap_relinks_the_importing_cone;
    Alcotest.test_case "epoch swap = cold restart" `Quick
      test_epoch_swap_matches_cold_restart;
    Alcotest.test_case "mid's cone excludes base" `Quick
      test_mid_cone_excludes_base;
    Alcotest.test_case "pin survives an epoch swap" `Quick
      test_pin_survives_epoch_swap;
    Alcotest.test_case "bounded epoch history" `Quick test_bounded_history;
    Alcotest.test_case "E0801 seal violation rolls back" `Quick
      test_seal_violation_E0801;
    Alcotest.test_case "E0802 relink conflict rolls back" `Quick
      test_relink_conflict_E0802;
    Alcotest.test_case "chaos: impl swap" `Quick test_chaos_impl_swap;
    Alcotest.test_case "chaos: epoch swap" `Quick test_chaos_epoch_swap;
    Alcotest.test_case "watchdog budget aborts" `Quick test_watchdog;
    Alcotest.test_case "chaos: seeded random walk" `Quick
      test_chaos_random_walk;
  ]
