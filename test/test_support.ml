(* Support substrate: symbol interning, locations, diagnostics. *)

module Symbol = Support.Symbol
module Loc = Support.Loc
module Diag = Support.Diag

let test_intern_identity () =
  let a = Symbol.intern "foo" in
  let b = Symbol.intern "foo" in
  let c = Symbol.intern "bar" in
  Alcotest.(check bool) "same string, same symbol" true (Symbol.equal a b);
  Alcotest.(check int) "same id" (Symbol.id a) (Symbol.id b);
  Alcotest.(check bool) "different string, different symbol" false
    (Symbol.equal a c);
  Alcotest.(check string) "name preserved" "foo" (Symbol.name a)

let test_fresh_no_collision () =
  let f1 = Symbol.fresh "tmp" in
  let f2 = Symbol.fresh "tmp" in
  Alcotest.(check bool) "fresh symbols distinct" false (Symbol.equal f1 f2);
  (* '%' can't be written in source identifiers. *)
  Alcotest.(check bool) "marker present" true
    (String.contains (Symbol.name f1) '%')

(* generated binder names reach bin bytes, so their spelling is pinned:
   [base%n], numbered from 1 in each scope, and the outer count resumes
   after a nested scope *)
let test_fresh_names_pinned () =
  let names () = List.map (fun b -> Symbol.name (Symbol.fresh b)) [ "n"; "n"; "x" ] in
  Symbol.with_fresh_scope (fun () ->
      Alcotest.(check (list string)) "first scope" [ "n%1"; "n%2"; "x%3" ] (names ());
      Alcotest.(check (list string)) "nested scope restarts" [ "n%1"; "n%2"; "x%3" ]
        (Symbol.with_fresh_scope names);
      Alcotest.(check (list string)) "outer count resumes" [ "n%4"; "n%5"; "x%6" ]
        (names ());
      for _ = 7 to 99 do
        ignore (Symbol.fresh "v")
      done;
      Alcotest.(check (list string)) "past two digits"
        [ "%100"; "a_long_binder_base_name%101" ]
        (List.map
           (fun b -> Symbol.name (Symbol.fresh b))
           [ ""; "a_long_binder_base_name" ]));
  let sym = Symbol.with_fresh_scope (fun () -> Symbol.fresh "n") in
  Alcotest.(check bool) "the same interned symbol" true (sym == Symbol.intern "n%1")

let test_symbol_map () =
  let m =
    Symbol.Map.empty
    |> Symbol.Map.add (Symbol.intern "x") 1
    |> Symbol.Map.add (Symbol.intern "y") 2
    |> Symbol.Map.add (Symbol.intern "x") 3
  in
  Alcotest.(check int) "overwrite" 3 (Symbol.Map.find (Symbol.intern "x") m);
  Alcotest.(check int) "cardinal" 2 (Symbol.Map.cardinal m)

let test_loc_merge () =
  let p o l c = { Loc.line = l; col = c; offset = o } in
  let a = Loc.make "f.sml" (p 0 1 0) (p 5 1 5) in
  let b = Loc.make "f.sml" (p 10 2 0) (p 15 2 5) in
  let m = Loc.merge a b in
  Alcotest.(check int) "merge start" 0 m.Loc.start_pos.Loc.offset;
  Alcotest.(check int) "merge end" 15 m.Loc.end_pos.Loc.offset;
  let m' = Loc.merge b a in
  Alcotest.(check int) "merge symmetric start" 0 m'.Loc.start_pos.Loc.offset

let test_loc_pp () =
  let p o l c = { Loc.line = l; col = c; offset = o } in
  let a = Loc.make "f.sml" (p 0 3 2) (p 5 3 7) in
  Alcotest.(check string) "single-line form" "f.sml:3.2-7" (Loc.to_string a);
  let b = Loc.make "f.sml" (p 0 3 2) (p 30 4 1) in
  Alcotest.(check string) "multi-line form" "f.sml:3.2-4.1" (Loc.to_string b)

let test_diag_guard () =
  let ok = Diag.guard (fun () -> 42) in
  Alcotest.(check bool) "ok passes through" true (ok = Ok 42);
  let err =
    Diag.guard (fun () -> Diag.error Diag.Parse Loc.dummy "unexpected %s" "eof")
  in
  match err with
  | Ok _ -> Alcotest.fail "expected error"
  | Error d ->
    Alcotest.(check string) "message formatted" "unexpected eof" d.Diag.message;
    Alcotest.(check string) "phase name" "syntax error"
      (Diag.phase_name d.Diag.phase)

let test_phase_names_total () =
  let phases =
    [
      Diag.Lex;
      Diag.Parse;
      Diag.Elaborate;
      Diag.Translate;
      Diag.Pickle;
      Diag.Link;
      Diag.Execute;
      Diag.Manager;
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        "phase has a non-empty name" true
        (String.length (Diag.phase_name p) > 0))
    phases;
  let names = List.map Diag.phase_name phases in
  Alcotest.(check int)
    "phase names are distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check string) "pickle phase renders" "pickle error"
    (Diag.phase_name Diag.Pickle)

let qcheck_intern_bijective =
  QCheck.Test.make ~count:300 ~name:"symbol: intern is injective on names"
    QCheck.(pair (string_of_size Gen.(1 -- 20)) (string_of_size Gen.(1 -- 20)))
    (fun (a, b) ->
      let sa = Symbol.intern a and sb = Symbol.intern b in
      String.equal a b = Symbol.equal sa sb)

let test_backoff_deterministic () =
  let seq seed =
    let bo = Support.Backoff.create ~seed ~base_s:0.05 ~cap_s:1.0 () in
    List.init 8 (fun k -> Support.Backoff.delay bo ~attempt:k)
  in
  Alcotest.(check (list (float 0.)))
    "same seed, same delays" (seq 42) (seq 42);
  Alcotest.(check bool)
    "different seeds diverge" false
    (List.equal Float.equal (seq 42) (seq 43))

(* the delays seed 42 has always drawn, bit for bit: seeding the
   generator on the first delay leaves the sequence as it was *)
let test_backoff_pinned () =
  let bo = Support.Backoff.create ~seed:42 ~base_s:0.05 ~cap_s:1.0 () in
  Alcotest.(check (list (float 0.)))
    "seed 42"
    [
      0x1.8c188c0765c35p-5;
      0x1.986a38b3d695ep-4;
      0x1.0e595a337bcdfp-3;
      0x1.407832ec2d3b4p-2;
      0x1.b32dde155056p-2;
      0x1.0ab8ea80fef2ep+0;
      0x1.6b7c1f620d506p+0;
      0x1.ce870e6fc2445p-1;
    ]
    (List.init 8 (fun k -> Support.Backoff.delay bo ~attempt:k))

let test_backoff_envelope () =
  let bo = Support.Backoff.create ~seed:7 ~base_s:0.05 ~cap_s:1.0 () in
  for k = 0 to 40 do
    let d = Support.Backoff.delay bo ~attempt:k in
    let ceiling = Float.min 1.0 (0.05 *. float_of_int (1 lsl min k 16)) in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within [ceiling/2, 1.5*ceiling)" k)
      true
      (d >= (ceiling /. 2.) -. 1e-9 && d < (ceiling *. 1.5) +. 1e-9)
  done;
  let off = Support.Backoff.create ~seed:7 ~base_s:0. ~cap_s:1.0 () in
  Alcotest.(check (float 0.))
    "zero base disables backoff" 0.
    (Support.Backoff.delay off ~attempt:5)

(* ---- interning from slices ---- *)

(* 60,000 names never interned before — enough to grow the table many
   times — each read once from inside a larger string and once whole,
   in both orders *)
let test_intern_sub_identity () =
  let n = 60_000 in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "slice%d_%x" i (i * 7919) in
    let framed = "<<" ^ name ^ ">>" in
    let len = String.length name in
    let a, b =
      if i land 1 = 0 then
        let a = Symbol.intern_sub framed 2 len in
        (a, Symbol.intern name)
      else
        let b = Symbol.intern name in
        (Symbol.intern_sub framed 2 len, b)
    in
    if a != b then Alcotest.failf "%s: intern_sub and intern disagree" name;
    if Symbol.name a <> name then Alcotest.failf "%s: name lost" name
  done;
  Alcotest.(check bool) "the empty slice is the empty name" true
    (Symbol.intern_sub "abc" 3 0 == Symbol.intern "");
  List.iter
    (fun (pos, len) ->
      match Symbol.intern_sub "abc" pos len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "slice (%d, %d) of \"abc\" must be rejected" pos len)
    [ (-1, 1); (0, -1); (0, 4); (2, 2); (4, 0); (max_int, 1) ]

(* two domains interning the same 10,000 new names at once get the same
   symbols: one symbol, and one id, per name *)
let test_intern_two_domains () =
  let names = Array.init 10_000 (fun i -> Printf.sprintf "race_%d" i) in
  let frame = String.concat " " (Array.to_list names) in
  (* every name's offset in [frame] *)
  let offsets =
    let pos = ref 0 in
    Array.map
      (fun name ->
        let p = !pos in
        pos := p + String.length name + 1;
        p)
      names
  in
  let start = Atomic.make false in
  let worker ~reverse =
    Domain.spawn (fun () ->
        while not (Atomic.get start) do
          Domain.cpu_relax ()
        done;
        let n = Array.length names in
        let syms = Array.make n (Symbol.intern "") in
        for k = 0 to n - 1 do
          let i = if reverse then n - 1 - k else k in
          syms.(i) <-
            (if i land 1 = 0 then Symbol.intern names.(i)
             else Symbol.intern_sub frame offsets.(i) (String.length names.(i)))
        done;
        syms)
  in
  let d1 = worker ~reverse:false and d2 = worker ~reverse:true in
  Atomic.set start true;
  let s1 = Domain.join d1 and s2 = Domain.join d2 in
  let ids = Hashtbl.create 10_000 in
  Array.iteri
    (fun i name ->
      if s1.(i) != s2.(i) then Alcotest.failf "%s: two symbols" name;
      if s1.(i) != Symbol.intern name then Alcotest.failf "%s: not the interned one" name;
      Hashtbl.replace ids (Symbol.id s1.(i)) ())
    names;
  Alcotest.(check int) "one id per name" (Array.length names) (Hashtbl.length ids)

let suite =
  [
    Alcotest.test_case "intern identity" `Quick test_intern_identity;
    Alcotest.test_case "fresh symbols" `Quick test_fresh_no_collision;
    Alcotest.test_case "symbol maps" `Quick test_symbol_map;
    Alcotest.test_case "loc merge" `Quick test_loc_merge;
    Alcotest.test_case "loc printing" `Quick test_loc_pp;
    Alcotest.test_case "diag guard" `Quick test_diag_guard;
    Alcotest.test_case "phase names total" `Quick test_phase_names_total;
    Alcotest.test_case "backoff deterministic" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "backoff envelope" `Quick test_backoff_envelope;
    Alcotest.test_case "backoff delays pinned" `Quick test_backoff_pinned;
    QCheck_alcotest.to_alcotest qcheck_intern_bijective;
    Alcotest.test_case "intern_sub = intern over 60k names" `Quick
      test_intern_sub_identity;
    Alcotest.test_case "two domains intern the same names" `Quick
      test_intern_two_domains;
    Alcotest.test_case "fresh names pinned" `Quick test_fresh_names_pinned;
  ]
