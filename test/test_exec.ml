(* The executor, tested differentially against the tree-walking oracle
   over the full front end, plus the pitfalls of closure conversion and
   the executor's diagnostics. *)

module Context = Statics.Context
module Basis = Statics.Basis
module Elaborate = Statics.Elaborate
module Types = Statics.Types
module Parser = Lang.Parser
module Eval = Dynamics.Eval
module Value = Dynamics.Value
module Symbol = Support.Symbol
module Diag = Support.Diag
module Pid = Digestkit.Pid

let lambda_of ?(decs = "") src =
  let ctx = Context.create () in
  Basis.register ctx;
  let env = Basis.env () in
  let delta, tdecs =
    if decs = "" then (Types.empty_env, [])
    else Elaborate.elab_decs ctx env (Parser.parse_decs ~file:"pre.sml" decs)
  in
  let env = Types.env_union env delta in
  let texp, _ = Elaborate.elab_exp ctx env (Parser.parse_exp ~file:"t.sml" src) in
  Translate.tdecs tdecs (Translate.texp texp)

(* the value (closures print as "fn"), the output, and the name of an
   uncaught exception *)
let outcome run code =
  let buf = Buffer.create 32 in
  let rt =
    Eval.runtime ~output:(Buffer.add_string buf) ~imports:Pid.Map.empty ()
  in
  match run rt code with
  | v ->
    Printf.sprintf "%s (output %S)" (Value.to_string v) (Buffer.contents buf)
  | exception Eval.Sml_raise (Value.Vexn (id, _)) ->
    Printf.sprintf "raised %s (output %S)" (Symbol.name id.Value.exn_name)
      (Buffer.contents buf)

let run_exec = outcome Eval.run
let run_oracle = outcome Oracle_eval.run

(* executor and oracle agree, on the translated and the simplified
   code, and on [expected] when it is given *)
let agree ?decs ?expected src =
  let code = lambda_of ?decs src in
  let oracle = run_oracle code in
  Option.iter (fun e -> Alcotest.(check string) src e oracle) expected;
  Alcotest.(check string) src oracle (run_exec code);
  Alcotest.(check string) (src ^ " (simplified)") oracle
    (run_exec (Simplify.term code))

let expect ?decs src expected = agree ?decs ~expected src

let test_arithmetic () =
  agree "1 + 2 * 3 - 4";
  (* div rounds toward negative infinity; mod takes the divisor's sign *)
  expect "~7 div 2" "~4 (output \"\")";
  expect "~7 mod 2" "1 (output \"\")";
  expect "7 div ~2" "~4 (output \"\")";
  expect "7 mod ~2" "~1 (output \"\")";
  expect "let val a = ~7 val b = 2 in (a div b, a mod b) end"
    "(~4, 1) (output \"\")";
  agree "10 mod 3";
  agree "(1 < 2, 2 <= 2, 3 > 4, 4 >= 4, \"a\" ^ \"b\")";
  expect "1 div 0" "raised Div (output \"\")";
  expect "7 mod (2 - 2)" "raised Div (output \"\")"

let test_functions () =
  agree "let val add = fn a => fn b => a + b in add 2 40 end";
  agree ~decs:"fun twice f x = f (f x)" "twice (fn n => n * 3) 2";
  agree ~decs:"fun fact n = if n = 0 then 1 else n * fact (n - 1)" "fact 12";
  expect
    ~decs:
      "fun even n = if n = 0 then true else odd (n - 1)\n\
       and odd n = if n = 0 then false else even (n - 1)"
    "(even 10, odd 7, even 7)" "(con1, con1, con0) (output \"\")"

let test_data_and_matching () =
  agree ~decs:"datatype 'a opt = N | S of 'a" "case S 5 of N => 0 | S n => n";
  agree
    ~decs:
      "fun len xs = case xs of nil => 0 | _ :: r => 1 + len r\n\
       fun app (a, b) = case a of nil => b | x :: r => x :: app (r, b)"
    "len (app ([1, 2, 3], [4, 5]))";
  agree "case (1, (2, 3)) of (a, (b, c)) => a * 100 + b * 10 + c"

let test_exceptions () =
  agree ~decs:"exception Boom of int" "(raise Boom 5) handle Boom n => n * 2";
  agree "(1 div 0) handle Div => 99";
  agree ~decs:"exception A exception B"
    "((raise A) handle B => 1) handle A => 2";
  agree ~decs:"exception E"
    "let fun dig n = if n = 0 then raise E else 1 + dig (n - 1) in dig 5 \
     handle E => 100 end"

let test_refs_and_effects () =
  agree "let val r = ref 10 in (r := !r + 1; r := !r * 2; !r) end";
  expect "(print \"side\"; print \"fx\"; 7)" "7 (output \"sidefx\")";
  (* operands of a primitive run left to right *)
  expect "(print \"a\"; 1) + (print \"b\"; 2)" "3 (output \"ab\")"

let test_structures_as_records () =
  agree
    ~decs:
      "structure M = struct val x = 3 fun inc n = n + x end\n\
       structure N = struct structure Inner = M end"
    "N.Inner.inc (N.Inner.x)"

let test_deep_recursion () =
  agree ~decs:"fun sum n = if n = 0 then 0 else n + sum (n - 1)" "sum 5000"

(* ---- the pitfalls of closure conversion ---- *)

let test_local_exception_generativity () =
  (* each call of [mk] declares a new E: a handler for the first call's
     E does not catch the second's *)
  let decs =
    "fun mk () = let exception E fun throw () = raise E fun catch f = (f \
     (); 0) handle E => 1 in (throw, catch) end"
  in
  expect ~decs "let val (t1, c1) = mk () in c1 t1 end" "1 (output \"\")";
  expect ~decs
    "let val (t1, c1) = mk () val (t2, c2) = mk () in (c2 t2, c1 t2) end"
    "raised E (output \"\")"

let test_recursive_captures () =
  (* a closure captures a fix-bound name, and a name two functions out *)
  expect
    ~decs:
      "fun count n = let fun go i = if i >= n then 0 else 1 + (fn () => go \
       (i + 1)) () in go 0 end"
    "count 7" "7 (output \"\")";
  expect
    ~decs:
      "fun f n = if n = 0 then 0 else 1 + f (n - 1)\n\
       val g = fn x => f x + f 1"
    "g 5" "6 (output \"\")";
  expect
    ~decs:
      "fun even n = if n = 0 then true else odd (n - 1)\n\
       and odd n = if n = 0 then false else even (n - 1)\n\
       val parity = fn n => (even n, odd n)"
    "parity 9" "(con0, con1) (output \"\")"

let test_handler_binds_per_call () =
  (* the packet of an outer activation must survive the inner ones: the
     recursive call runs before [k] is read *)
  expect
    ~decs:
      "exception E of int\n\
       fun g n = (raise E n) handle E k => if n = 0 then k else g (n - 1) + k"
    "g 3" "6 (output \"\")"

let test_deep_non_tail_recursion () =
  let code =
    lambda_of
      ~decs:
        "fun build (n, acc) = if n = 0 then acc else build (n - 1, n :: acc)\n\
         fun len xs = case xs of nil => 0 | _ :: r => 1 + len r"
      "len (build (1000000, nil))"
  in
  Alcotest.(check string) "len of a million" "1000000 (output \"\")"
    (run_exec code)

(* ---- errors stay diagnostics ---- *)

let phase_of f =
  match f () with
  | _ -> Alcotest.fail "expected a diagnostic"
  | exception Diag.Error d -> Diag.phase_id d.Diag.phase

let test_errors_are_diagnostics () =
  let rt = Eval.runtime ~output:ignore ~imports:Pid.Map.empty () in
  let run term () = Eval.run rt term in
  let x = Symbol.intern "x" and nowhere = Symbol.intern "nowhere" in
  let execute = Diag.phase_id Diag.Execute and link = Diag.phase_id Diag.Link in
  let open Lambda in
  (* found when converting, though the branch is never taken *)
  Alcotest.(check string) "unbound variable" execute
    (phase_of (run (Lif (Lcon0 1, Lint 1, Lvar nowhere))));
  Alcotest.(check string) "missing import in a branch never taken" link
    (phase_of (run (Lif (Lcon0 1, Lint 1, Limport (Pid.fresh ())))));
  (* a top-level function is converted on its first call *)
  Alcotest.(check string) "unbound variable in a called function" execute
    (phase_of (run (Lapp (Lfn (x, Lvar nowhere), Lint 1))));
  Alcotest.(check string) "runtime representation error" execute
    (phase_of (run (Lapp (Lint 1, Lint 2))))

let test_linker_checks_before_converting () =
  let cu = Link.Codeunit.make ~exports:[] (Lambda.Limport (Pid.fresh ())) in
  Obs.Trace.enable ();
  let code =
    match Link.Linker.execute cu Link.Linker.empty with
    | _ -> "none"
    | exception Diag.Error d -> d.Diag.code
  in
  let ok = Link.Codeunit.make ~exports:[] (Lambda.Lrecord []) in
  ignore (Link.Linker.execute ok Link.Linker.empty);
  Obs.Trace.disable ();
  Alcotest.(check string) "stale import" "E0601" code;
  let spans name =
    List.filter (fun e -> e.Obs.Trace.ev_name = name) (Obs.Trace.events ())
  in
  (match (spans "link.execute", spans "link.convert") with
  | [ execute ], [ convert ] ->
    Alcotest.(check bool) "link.convert nests in link.execute" true
      (convert.Obs.Trace.ev_depth > execute.Obs.Trace.ev_depth
      && convert.ev_start_us >= execute.ev_start_us)
  | e, c ->
    Alcotest.failf "expected one execute and one convert span, got %d and %d"
      (List.length e) (List.length c));
  Obs.Trace.reset ()

(* a function made by one execute and called by another prints to the
   caller's output, whether it was converted on its first call (a
   top-level function), up front (a nested one) or is a primitive *)
let test_print_goes_to_the_caller () =
  let open Lambda in
  let sym = Symbol.intern in
  let print = Lprim Statics.Prim.Pprint in
  let print_fn = Lfn (sym "s", Lapp (print, Lvar (sym "s"))) in
  let unit_a =
    Lrecord
      [
        (sym "say", print_fn);
        (sym "mk", Lfn (sym "u", print_fn));
        (sym "prim", print);
      ]
  in
  let buf_a = Buffer.create 8 and buf_b = Buffer.create 8 in
  let a =
    Eval.run
      (Eval.runtime ~output:(Buffer.add_string buf_a)
         ~imports:Pid.Map.empty ())
      unit_a
  in
  let pid = Pid.fresh () in
  let call f arg = Lapp (f, Lstring arg) in
  let field name = Lfield (sym name, Limport pid) in
  let unit_b =
    Ltuple
      [
        call (field "say") "1";
        call (Lapp (field "mk", Lint 0)) "2";
        call (field "prim") "3";
      ]
  in
  let rt_b =
    Eval.runtime ~output:(Buffer.add_string buf_b)
      ~imports:(Pid.Map.singleton pid a) ()
  in
  ignore (Eval.run rt_b unit_b);
  Alcotest.(check string) "the caller's output" "123" (Buffer.contents buf_b);
  Alcotest.(check string) "not the defining unit's" "" (Buffer.contents buf_a)

(* ---- the fused tests, on hand-built terms ---- *)

(* like [outcome], but an executor diagnostic is an outcome too *)
let term_outcome run term =
  match outcome run term with
  | s -> s
  | exception Diag.Error d ->
    Printf.sprintf "%s error: %s" (Diag.phase_id d.Diag.phase) d.Diag.message

(* the executor and the oracle agree on [term], and on [expected] *)
let same_outcome name term expected =
  Alcotest.(check string) (name ^ " (oracle)") expected
    (term_outcome Oracle_eval.run term);
  Alcotest.(check string) name expected (term_outcome Eval.run term)

let test_fused_tests () =
  let open Lambda in
  let sym = Symbol.intern in
  let x = sym "x" and y = sym "y" and p = sym "p" in
  let prim op a b = Lapp (Lprim op, Ltuple [ a; b ]) in
  let tag_is e k = prim Statics.Prim.Peq (Lcontag e) (Lint k) in
  (* the test under [if], and in value position *)
  let both name test expected =
    same_outcome name
      (Lif (test, Lstring "yes", Lstring "no"))
      (Printf.sprintf "%S (output \"\")" (if expected then "yes" else "no"));
    same_outcome (name ^ " as a value") test
      (Printf.sprintf "con%d (output \"\")" (if expected then 1 else 0))
  in
  let bound v e body = Llet (v, e, body) in
  (* tags, with and without an argument *)
  both "nullary tag" (bound x (Lcon0 2) (tag_is (Lvar x) 2)) true;
  both "nullary other tag" (bound x (Lcon0 2) (tag_is (Lvar x) 0)) false;
  both "unary tag" (bound x (Lcon (3, Lint 7)) (tag_is (Lvar x) 3)) true;
  both "unary other tag" (bound x (Lcon (3, Lint 7)) (tag_is (Lvar x) 1)) false;
  let not_con = "execute error: tag of non-constructor 5" in
  same_outcome "tag of an int"
    (Lif (tag_is (Lint 5) 0, Lint 1, Lint 0))
    not_con;
  same_outcome "tag of an int as a value" (tag_is (Lint 5) 0) not_con;
  (* every int comparison, at the ends of the range *)
  let ints = [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ] in
  List.iter
    (fun (op, f) ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              both
                (Printf.sprintf "%d %s %d" a (Statics.Prim.name op) b)
                (bound x (Lint a)
                   (bound y (Lint b) (prim op (Lvar x) (Lvar y))))
                (f a b))
            ints)
        ints)
    Statics.Prim.
      [
        (Plt, ( < )); (Ple, ( <= )); (Pgt, ( > )); (Pge, ( >= ));
        (Peq, ( = )); (Pneq, ( <> ));
      ];
  (* = and <> on other values fall back to structural equality *)
  let eq = prim Statics.Prim.Peq and neq = prim Statics.Prim.Pneq in
  both "equal strings" (eq (Lstring "ab") (Lstring "ab")) true;
  both "unequal strings" (eq (Lstring "ab") (Lstring "ba")) false;
  both "<> on strings" (neq (Lstring "ab") (Lstring "ba")) true;
  both "equal constructors" (eq (Lcon (1, Lint 2)) (Lcon (1, Lint 2))) true;
  both "unequal arguments" (eq (Lcon (1, Lint 2)) (Lcon (1, Lint 3))) false;
  both "<> on constructors" (neq (Lcon0 0) (Lcon (0, Lint 3))) true;
  both "equal tuples"
    (eq (Ltuple [ Lint 1; Lstring "a" ]) (Ltuple [ Lint 1; Lstring "a" ]))
    true;
  let id = Lfn (x, Lvar x) in
  let on_functions = "execute error: equality on functions" in
  same_outcome "= on functions" (Lif (eq id id, Lint 1, Lint 0)) on_functions;
  same_outcome "<> on functions" (Lif (neq id (Lint 1), Lint 1, Lint 0))
    on_functions;
  same_outcome "< on strings"
    (Lif (prim Statics.Prim.Plt (Lstring "a") (Lstring "b"), Lint 1, Lint 0))
    "execute error: primitive expected an int pair, got (\"a\", \"b\")";
  same_outcome "if on an int" (Lif (Lint 1, Lint 1, Lint 0))
    "execute error: if on non-bool 1";
  (* division by zero raises Div, which a handler can catch *)
  let catch_div body =
    Lhandle
      ( body,
        p,
        Lif
          ( eq (Lexnid (Lvar p)) (Lexnid (Lbasisexn (sym "Div"))),
            Lint 99,
            Lraise (Lvar p) ) )
  in
  List.iter
    (fun op ->
      let name = Statics.Prim.name op in
      same_outcome (name ^ " by zero")
        (bound x (Lint 0) (catch_div (prim op (Lint 7) (Lvar x))))
        "99 (output \"\")";
      same_outcome (name ^ " by zero, uncaught")
        (bound x (Lint 0) (prim op (Lint 7) (Lvar x)))
        "raised Div (output \"\")";
      same_outcome (name ^ " by a non-zero divisor")
        (bound x (Lint (-2)) (catch_div (prim op (Lint 7) (Lvar x))))
        (if op = Statics.Prim.Pdiv then "~4 (output \"\")"
         else "~1 (output \"\")"))
    Statics.Prim.[ Pdiv; Pmod ]

(* ---- leaf operands, read in place ---- *)

(* where a form finds an operand: a local slot, a captured variable, a
   variable of the initial environment, the literal itself, or code that
   is no leaf *)
let sites = [ "local"; "captured"; "initial"; "literal"; "code" ]

(* [place site pos v k] puts the operand [v] at [site] and gives [k] the
   term that reads it; the result carries the initial environment.
   [None] when [v] is no literal and [site] is "literal", or raises and
   [site] is "initial". *)
let place site pos v k =
  let open Lambda in
  let x = Symbol.intern (Printf.sprintf "operand%d" pos) in
  match site with
  | "local" -> Option.map (fun (t, env) -> (Llet (x, v, t), env)) (k (Lvar x))
  | "captured" ->
    Option.map
      (fun (t, env) ->
        (Llet (x, v, Lapp (Lfn (Symbol.intern "u", t), Lint 0)), env))
      (k (Lvar x))
  | "initial" -> (
    let rt = Eval.runtime ~output:ignore ~imports:Pid.Map.empty () in
    match Eval.run rt v with
    | value ->
      Option.map (fun (t, env) -> (t, Symbol.Map.add x value env)) (k (Lvar x))
    | exception Eval.Sml_raise _ -> None)
  | "literal" -> ( match v with Lint _ | Lstring _ -> k v | _ -> None)
  | _ -> k (Llet (x, v, Lvar x))

let env_outcome env run term =
  term_outcome (fun rt term -> run rt env term) term

(* the executor and the oracle agree on [form] over [operands], and on
   [expected] when it is given, at every combination of sites *)
let agree_at_sites ?expected name form operands =
  let rec combos = function
    | [] -> [ [] ]
    | _ :: rest ->
      List.concat_map
        (fun site -> List.map (List.cons site) (combos rest))
        sites
  in
  List.iter
    (fun chosen ->
      let rec build pos acc = function
        | [] -> Some (form (List.rev acc), Symbol.Map.empty)
        | (site, v) :: rest ->
          place site pos v (fun read -> build (pos + 1) (read :: acc) rest)
      in
      match build 0 [] (List.combine chosen operands) with
      | None -> ()
      | Some (term, env) ->
        let label = Printf.sprintf "%s [%s]" name (String.concat ", " chosen) in
        let oracle = env_outcome env Oracle_eval.eval term in
        Option.iter
          (fun e -> Alcotest.(check string) (label ^ " (oracle)") e oracle)
          expected;
        Alcotest.(check string) label oracle (env_outcome env Eval.eval term))
    (combos operands)

let expect_at_sites name form operands expected =
  agree_at_sites ~expected name form operands

let ok v = Printf.sprintf "%s (output \"\")" v

let test_leaf_forms () =
  let open Lambda in
  let module P = Statics.Prim in
  let sym = Symbol.intern in
  let prim op a b = Lapp (Lprim op, Ltuple [ a; b ]) in
  let pair = Ltuple [ Lint 1; Lstring "b" ] in
  (* #i v, and a projection of a non-tuple or past its end *)
  let select i = function [ v ] -> Lselect (i, v) | _ -> assert false in
  expect_at_sites "#0" (select 0) [ pair ] (ok "1");
  expect_at_sites "#1" (select 1) [ pair ] (ok "\"b\"");
  expect_at_sites "# of an int" (select 0) [ Lint 5 ]
    "execute error: bad tuple projection #0 of 5";
  expect_at_sites "# past the end" (select 2) [ pair ]
    "execute error: bad tuple projection #2 of (1, \"b\")";
  (* int arithmetic, a non-int operand, and an operand with an effect *)
  let binop op = function [ a; b ] -> prim op a b | _ -> assert false in
  List.iter
    (fun op ->
      let name = P.name op in
      agree_at_sites name (binop op) [ Lint 17; Lint (-5) ];
      expect_at_sites (name ^ " on a string") (binop op)
        [ Lint 1; Lstring "s" ]
        "execute error: primitive expected an int pair, got (1, \"s\")")
    P.[ Padd; Psub; Pmul; Pdiv; Pmod ];
  let noisy n = Llet (sym "_", Lapp (Lprim P.Pprint, Lstring "!"), Lint n) in
  (* an operand with an effect: its output is the run's only where the
     operand is not in the initial environment *)
  agree_at_sites "+ after an effect" (binop P.Padd) [ noisy 1; Lint 2 ];
  same_outcome "+ after an effect" (prim P.Padd (noisy 1) (Lint 2))
    "3 (output \"!\")";
  (* comparisons as conditions and as values *)
  let compare op = function
    | [ a; b ] -> Lif (prim op a b, Lstring "yes", Lstring "no")
    | _ -> assert false
  in
  List.iter
    (fun op ->
      let name = P.name op in
      agree_at_sites name (compare op) [ Lint 3; Lint 4 ];
      agree_at_sites (name ^ " as a value") (binop op) [ Lint 4; Lint 4 ])
    P.[ Plt; Ple; Pgt; Pge; Peq; Pneq ];
  expect_at_sites "< on a string" (compare P.Plt) [ Lstring "a"; Lint 1 ]
    "execute error: primitive expected an int pair, got (\"a\", 1)";
  expect_at_sites "= on strings" (compare P.Peq) [ Lstring "a"; Lstring "a" ]
    (ok "\"yes\"");
  (* an application whose head is a variable *)
  let apply = function [ f; a ] -> Lapp (f, a) | _ -> assert false in
  let x = sym "x" in
  expect_at_sites "a closure" apply
    [ Lfn (x, prim P.Padd (Lvar x) (Lint 1)); Lint 41 ]
    (ok "42");
  expect_at_sites "a primitive" apply [ Lprim P.Psize; Lstring "abc" ] (ok "3");
  expect_at_sites "print" apply [ Lprim P.Pprint; Lstring "hi" ]
    "() (output \"hi\")";
  expect_at_sites "an exception constructor" apply
    [ Lbasisexn (sym "Fail"); Lstring "why" ]
    (ok "Fail(\"why\")");
  expect_at_sites "a nullary exception constructor" apply
    [ Lbasisexn (sym "Div"); Lint 0 ]
    "execute error: application of a nullary exception constructor";
  expect_at_sites "a non-function" apply [ Lint 3; Lint 0 ]
    "execute error: application of non-function 3";
  expect_at_sites "a non-function to a raising argument" apply
    [ Lint 3; Lraise (Lmkexn0 (Lbasisexn (sym "Div"))) ]
    "raised Div (output \"\")";
  (* a pair of leaves *)
  let tuple parts = Ltuple parts in
  expect_at_sites "a pair" tuple [ Lint 1; Lstring "b" ] (ok "(1, \"b\")");
  (* a constructor's tag test and its argument *)
  let tag_is k = function
    | [ v ] -> Lif (prim P.Peq (Lcontag v) (Lint k), Lint 1, Lint 0)
    | _ -> assert false
  in
  expect_at_sites "tag" (tag_is 3) [ Lcon (3, Lint 7) ] (ok "1");
  expect_at_sites "other tag" (tag_is 1) [ Lcon0 2 ] (ok "0");
  expect_at_sites "tag of an int" (tag_is 0) [ Lint 5 ]
    "execute error: tag of non-constructor 5";
  let arg = function [ v ] -> Lconarg v | _ -> assert false in
  expect_at_sites "arg" arg [ Lcon (3, Lint 7) ] (ok "7");
  expect_at_sites "arg of a nullary constructor" arg [ Lcon0 1 ]
    "execute error: argument of non-unary-constructor con1";
  expect_at_sites "arg of an int" arg [ Lint 5 ]
    "execute error: argument of non-unary-constructor 5"

(* ---- Overflow ---- *)

let raised_overflow = "raised Overflow (output \"\")"

let test_overflow () =
  let open Lambda in
  let module P = Statics.Prim in
  let f = Symbol.intern "f" in
  let expected = function
    | Some n -> ok (Value.to_string (Value.Vint n))
    | None -> raised_overflow
  in
  let div a b =
    if a = min_int && b = -1 then None else Some (P.int_div a b)
  in
  let cases =
    [
      ( P.Padd,
        Oracle_simplify.exact_add,
        [ (max_int, 1); (min_int, -1); (max_int, -1); (max_int, min_int) ] );
      ( P.Psub,
        Oracle_simplify.exact_sub,
        [ (min_int, 1); (max_int, -1); (0, min_int); (-1, min_int) ] );
      ( P.Pmul,
        Oracle_simplify.exact_mul,
        [
          (max_int, 2); (min_int, -1); (-1, min_int); (min_int, 1);
          (1 lsl 31, 1 lsl 31); (1 lsl 31, -(1 lsl 31)); (max_int, -1);
          (3037000499, 3037000499); (-3037000500, 3037000500);
        ] );
      (P.Pdiv, div, [ (min_int, -1); (min_int, 1); (max_int, -1) ]);
      ( P.Pmod,
        (fun a b -> Some (P.int_mod a b)),
        [ (min_int, -1); (max_int, min_int) ] );
    ]
  in
  List.iter
    (fun (op, exact, pairs) ->
      List.iter
        (fun (a, b) ->
          let name = Printf.sprintf "%d %s %d" a (P.name op) b in
          let term = Lapp (Lprim op, Ltuple [ Lint a; Lint b ]) in
          let want = expected (exact a b) in
          (* unfolded, at every site, and through the primitive as a value *)
          expect_at_sites name
            (function
              | [ x; y ] -> Lapp (Lprim op, Ltuple [ x; y ])
              | _ -> assert false)
            [ Lint a; Lint b ] want;
          same_outcome (name ^ " via apply")
            (Llet (f, Lprim op, Lapp (Lvar f, Ltuple [ Lint a; Lint b ])))
            want;
          (* folded: an overflowing operation stays in the code *)
          let simplified = Simplify.term term in
          Alcotest.(check bool) (name ^ " folds") (exact a b <> None)
            (match simplified with Lint _ -> true | _ -> false);
          same_outcome (name ^ " simplified") simplified want)
        pairs)
    cases;
  List.iter
    (fun a ->
      let name = Printf.sprintf "~%d" a in
      let term = Lapp (Lprim P.Pneg, Lint a) in
      let want = expected (Oracle_simplify.exact_neg a) in
      same_outcome name term want;
      same_outcome (name ^ " simplified") (Simplify.term term) want)
    [ min_int; max_int; min_int + 1 ];
  (* from source: raised, caught, and at the edge of the range *)
  expect "4611686018427387903 + 1" raised_overflow;
  expect "(4611686018427387903 + 1) handle Overflow => 7" (ok "7");
  expect "~4611686018427387903 - 1" (ok "~4611686018427387904");
  expect "0 - (~4611686018427387903 - 1)" raised_overflow;
  expect "(~4611686018427387903 - 1) div ~1" raised_overflow;
  expect "(~4611686018427387903 - 1) mod ~1" (ok "0");
  expect "let fun f n = n * 2 in f 4611686018427387903 end" raised_overflow;
  expect "3037000499 * 3037000499" raised_overflow

let qcheck_differential =
  QCheck.Test.make ~count:80 ~name:"executor agrees with oracle"
    (QCheck.make ~print:fst Test_props.int_exp_gen)
    (fun (src, expected) ->
      let code = lambda_of src in
      let result = run_exec code in
      result = run_oracle code
      && result
         = Printf.sprintf "%s (output \"\")"
             (Test_props.expected_outcome expected))

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "functions and recursion" `Quick test_functions;
    Alcotest.test_case "data and matching" `Quick test_data_and_matching;
    Alcotest.test_case "exceptions" `Quick test_exceptions;
    Alcotest.test_case "refs and effects" `Quick test_refs_and_effects;
    Alcotest.test_case "structures as records" `Quick
      test_structures_as_records;
    Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
    Alcotest.test_case "local exception per call" `Quick
      test_local_exception_generativity;
    Alcotest.test_case "recursive captures" `Quick test_recursive_captures;
    Alcotest.test_case "handler binds per call" `Quick
      test_handler_binds_per_call;
    Alcotest.test_case "deep non-tail recursion" `Quick
      test_deep_non_tail_recursion;
    Alcotest.test_case "errors are diagnostics" `Quick
      test_errors_are_diagnostics;
    Alcotest.test_case "linker checks before converting" `Quick
      test_linker_checks_before_converting;
    Alcotest.test_case "print goes to the caller" `Quick
      test_print_goes_to_the_caller;
    Alcotest.test_case "fused tests" `Quick test_fused_tests;
    Alcotest.test_case "leaf forms" `Quick test_leaf_forms;
    Alcotest.test_case "overflow" `Quick test_overflow;
    QCheck_alcotest.to_alcotest qcheck_differential;
  ]
