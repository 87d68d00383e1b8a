(* Exhaustiveness and redundancy analysis, end to end through the
   elaborator's warning channel. *)

module Parser = Lang.Parser
module Elaborate = Statics.Elaborate
module Context = Statics.Context
module Basis = Statics.Basis

let warnings_of ?(decs = "") src =
  let ctx = Context.create () in
  Basis.register ctx;
  let warnings = ref [] in
  let warn _loc msg = warnings := msg :: !warnings in
  let env = Basis.env in
  let env =
    if decs = "" then env
    else
      let delta, _ =
        Elaborate.elab_decs ctx env (Parser.parse_decs ~file:"pre.sml" decs)
      in
      Statics.Types.env_union env delta
  in
  ignore (Elaborate.elab_exp ~warn ctx env (Parser.parse_exp ~file:"t.sml" src));
  List.rev !warnings

let has_warning needle warnings =
  List.exists
    (fun w ->
      let rec contains i =
        i + String.length needle <= String.length w
        && (String.equal (String.sub w i (String.length needle)) needle
            || contains (i + 1))
      in
      contains 0)
    warnings

let check_warns ?decs src needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s warns %s" src needle)
    true
    (has_warning needle (warnings_of ?decs src))

let check_clean ?decs src =
  Alcotest.(check (list string)) (src ^ " is clean") [] (warnings_of ?decs src)

let test_exhaustive_bool () =
  check_clean "case 1 < 2 of true => 1 | false => 0";
  check_warns "case 1 < 2 of true => 1" "nonexhaustive"

let test_exhaustive_lists () =
  check_clean "case [1] of nil => 0 | _ :: _ => 1";
  check_warns "case [1] of x :: _ => x" "nonexhaustive";
  check_clean "case [1] of nil => 0 | [x] => x | x :: _ => x"

let test_datatype_spans () =
  let decs = "datatype color = Red | Green | Blue" in
  check_clean ~decs "case Red of Red => 0 | Green => 1 | Blue => 2";
  check_warns ~decs "case Red of Red => 0 | Green => 1" "nonexhaustive";
  check_clean ~decs "case Red of Red => 0 | _ => 9"

let test_integers_open () =
  check_warns "case 3 of 0 => 0 | 1 => 1" "nonexhaustive";
  check_clean "case 3 of 0 => 0 | n => n"

let test_redundancy () =
  check_warns "case 3 of _ => 0 | 1 => 1" "redundant";
  check_warns "case [1] of nil => 0 | x :: _ => x | nil => 9" "redundant";
  let decs = "datatype t = A | B" in
  check_warns ~decs "case A of A => 0 | B => 1 | _ => 2" "redundant"

let test_nested () =
  check_clean
    "case ([1], true) of (nil, _) => 0 | (_ :: _, true) => 1 | (_ :: _, \
     false) => 2";
  check_warns "case ([1], true) of (nil, _) => 0 | (_ :: _, true) => 1"
    "nonexhaustive"

let test_handle_not_flagged () =
  (* handlers are expected to be partial *)
  check_clean "(1 div 0) handle Div => 0";
  (* but a genuinely redundant handler rule is still flagged *)
  check_warns "(1 div 0) handle _ => 0 | Div => 1" "redundant"

let test_binding_exhaustiveness () =
  let ctx = Context.create () in
  Basis.register ctx;
  let warnings = ref [] in
  let warn _loc msg = warnings := msg :: !warnings in
  ignore
    (Elaborate.elab_decs ~warn ctx (Basis.env)
       (Parser.parse_decs ~file:"t.sml" "val x :: _ = [1, 2]"));
  Alcotest.(check bool) "binding warned" true
    (has_warning "not exhaustive" !warnings);
  let warnings2 = ref [] in
  let warn2 _loc msg = warnings2 := msg :: !warnings2 in
  ignore
    (Elaborate.elab_decs ~warn:warn2 ctx (Basis.env)
       (Parser.parse_decs ~file:"t.sml" "val (a, b) = (1, 2)"));
  Alcotest.(check (list string)) "tuple binding clean" [] !warnings2

let test_exceptions_open () =
  let decs = "exception E1\nexception E2" in
  (* two different exception constructors: neither redundant *)
  check_clean ~decs "(raise E1) handle E1 => 1 | E2 => 2";
  (* the same constructor twice is redundant *)
  check_warns ~decs "(raise E1) handle E1 => 1 | E1 => 2" "redundant"

let suite =
  [
    Alcotest.test_case "bool exhaustiveness" `Quick test_exhaustive_bool;
    Alcotest.test_case "list exhaustiveness" `Quick test_exhaustive_lists;
    Alcotest.test_case "datatype spans" `Quick test_datatype_spans;
    Alcotest.test_case "integers are open" `Quick test_integers_open;
    Alcotest.test_case "redundancy" `Quick test_redundancy;
    Alcotest.test_case "nested patterns" `Quick test_nested;
    Alcotest.test_case "handlers not flagged" `Quick test_handle_not_flagged;
    Alcotest.test_case "binding exhaustiveness" `Quick
      test_binding_exhaustiveness;
    Alcotest.test_case "exceptions are open" `Quick test_exceptions_open;
  ]
