(* End-to-end dynamic semantics: parse → elaborate → translate → eval. *)

module Context = Statics.Context
module Basis = Statics.Basis
module Elaborate = Statics.Elaborate
module Types = Statics.Types
module Parser = Lang.Parser
module Value = Dynamics.Value
module Eval = Dynamics.Eval
module Diag = Support.Diag

let run ?(decs = "") src =
  let ctx = Context.create () in
  Basis.register ctx;
  let env = Basis.env in
  let delta, tdecs =
    if decs = "" then (Types.empty_env, [])
    else Elaborate.elab_decs ctx env (Parser.parse_decs ~file:"pre.sml" decs)
  in
  let env = Types.env_union env delta in
  let texp, _ty = Elaborate.elab_exp ctx env (Parser.parse_exp ~file:"t.sml" src) in
  let code = Translate.tdecs tdecs (Translate.texp texp) in
  let buffer = Buffer.create 64 in
  let rt =
    Eval.runtime ~output:(Buffer.add_string buffer)
      ~imports:Digestkit.Pid.Map.empty ()
  in
  let value = Eval.run rt code in
  (value, Buffer.contents buffer)

let check_int ?decs src expected =
  match run ?decs src with
  | Value.Vint n, _ -> Alcotest.(check int) src expected n
  | v, _ -> Alcotest.fail (src ^ " evaluated to " ^ Value.to_string v)

let check_string ?decs src expected =
  match run ?decs src with
  | Value.Vstring s, _ -> Alcotest.(check string) src expected s
  | v, _ -> Alcotest.fail (src ^ " evaluated to " ^ Value.to_string v)

let check_bool ?decs src expected =
  match run ?decs src with
  | Value.Vcon0 tag, _ -> Alcotest.(check int) src (if expected then 1 else 0) tag
  | v, _ -> Alcotest.fail (src ^ " evaluated to " ^ Value.to_string v)

let check_raises ?decs src exn_name =
  match run ?decs src with
  | exception Eval.Sml_raise (Value.Vexn (id, _)) ->
    Alcotest.(check string) src exn_name (Support.Symbol.name id.Value.exn_name)
  | v, _ -> Alcotest.fail (src ^ " evaluated to " ^ Value.to_string v)

let test_arithmetic () =
  check_int "1 + 2 * 3" 7;
  check_int "10 div 3" 3;
  check_int "10 mod 3" 1;
  (* div rounds toward negative infinity; mod takes the divisor's sign *)
  check_int "~7 div 2" (-4);
  check_int "~7 mod 2" 1;
  check_int "7 div ~2" (-4);
  check_int "7 mod ~2" (-1);
  check_int "~7 div ~2" 3;
  check_int "~7 mod ~2" (-1);
  check_int "~5 + 2" (-3);
  check_bool "3 < 4" true;
  check_bool "3 >= 4" false;
  check_bool "1 = 1 andalso 2 <> 3" true;
  check_string "\"foo\" ^ \"bar\"" "foobar";
  check_int "size \"hello\"" 5

let test_division_by_zero () =
  check_raises "1 div 0" "Div";
  check_raises "1 mod 0" "Div";
  check_int "(1 div 0) handle Div => 42" 42

let test_closures_and_currying () =
  check_int "let val add = fn a => fn b => a + b in add 2 3 end" 5;
  check_int ~decs:"fun compose f g x = f (g x)"
    "compose (fn x => x * 2) (fn x => x + 1) 10" 22;
  check_int "let val x = 10 val f = fn y => x + y val x = 999 in f 1 end" 11

let test_recursion () =
  check_int ~decs:"fun fact n = if n = 0 then 1 else n * fact (n - 1)"
    "fact 10" 3628800;
  check_int
    ~decs:
      "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)"
    "fib 20" 6765;
  check_bool
    ~decs:
      "fun even n = if n = 0 then true else odd (n - 1)\n\
       and odd n = if n = 0 then false else even (n - 1)"
    "even 100" true

let test_lists_and_matching () =
  let decs =
    "fun len xs = case xs of nil => 0 | _ :: rest => 1 + len rest\n\
     fun sum xs = case xs of nil => 0 | x :: rest => x + sum rest\n\
     fun append (xs, ys) = case xs of nil => ys | x :: rest => x :: append \
     (rest, ys)\n\
     fun rev xs = case xs of nil => nil | x :: rest => append (rev rest, [x])"
  in
  check_int ~decs "len [1, 2, 3, 4]" 4;
  check_int ~decs "sum [1, 2, 3, 4]" 10;
  check_int ~decs "sum (append ([1, 2], [30, 40]))" 73;
  check_int ~decs "sum (rev [1, 2, 3])" 6;
  check_int ~decs "case rev [1, 2, 3] of x :: _ => x | nil => 0" 3

let test_nested_patterns () =
  let decs =
    "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree\n\
     fun depth t = case t of Leaf => 0 | Node (l, _, r) => 1 + (if depth l > \
     depth r then depth l else depth r)\n\
     fun total t = case t of Leaf => 0 | Node (Leaf, v, Leaf) => v | Node (l, \
     v, r) => total l + v + total r"
  in
  check_int ~decs "depth (Node (Node (Leaf, 1, Leaf), 2, Leaf))" 2;
  check_int ~decs "total (Node (Node (Leaf, 1, Leaf), 2, Node (Leaf, 3, Leaf)))" 6

let test_match_failure () =
  check_raises "case [1] of nil => 0" "Match";
  check_int "(case [1] of nil => 0) handle Match => ~1" (-1)

let test_exceptions () =
  let decs = "exception Odd of int" in
  check_int ~decs "(raise Odd 3) handle Odd n => n * 10" 30;
  check_int ~decs "(raise Odd 3) handle Subscript => 0 | Odd n => n" 3;
  (* uncaught exceptions propagate *)
  check_raises ~decs "raise Odd 1" "Odd";
  (* handler re-raises unmatched packets *)
  check_raises ~decs "(raise Odd 1) handle Subscript => 0" "Odd"

let test_exception_generativity () =
  (* each evaluation of [exception] makes a new identity: the inner E
     does not catch the outer E's packets *)
  let decs =
    "exception E\n\
     val raiser = fn () => raise E\n\
     exception E"
  in
  check_raises ~decs "(raiser ()) handle E => 0" "E"

let test_refs () =
  check_int "let val r = ref 1 in (r := !r + 41; !r) end" 42;
  check_int
    ~decs:
      "val counter = ref 0\n\
       fun tick () = (counter := !counter + 1; !counter)"
    "(tick (); tick (); tick ())" 3

let test_print () =
  let _, out = run "(print \"hello \"; print \"world\"; 0)" in
  Alcotest.(check string) "print output" "hello world" out;
  let _, out2 = run "(print (intToString 42); 0)" in
  Alcotest.(check string) "intToString" "42" out2

let test_structures_runtime () =
  let decs =
    "structure Counter = struct val start = 100 fun next n = n + 1 end\n\
     structure Wrap = struct structure Inner = Counter val base = \
     Counter.next Counter.start end"
  in
  check_int ~decs "Wrap.base" 101;
  check_int ~decs "Wrap.Inner.next 5" 6

let test_ascription_thinning () =
  (* hidden components are dropped from the runtime record, but visible
     ones still work *)
  let decs =
    "signature S = sig val visible : int end\n\
     structure M : S = struct val hidden = 1 val visible = hidden + 1 end"
  in
  check_int ~decs "M.visible" 2

let test_functor_runtime () =
  let decs =
    "signature ORD = sig type elem val less : elem * elem -> bool end\n\
     functor Sort (O : ORD) = struct\n\
       fun insert (x, nil) = [x]\n\
         | insert (x, y :: ys) = if O.less (x, y) then x :: y :: ys else y :: \
     insert (x, ys)\n\
       fun sort nil = nil | sort (x :: xs) = insert (x, sort xs)\n\
     end\n\
     structure IntOrd = struct type elem = int fun less (a, b) = a < b end\n\
     structure S = Sort(IntOrd)\n\
     fun digits xs = let fun go (acc, l) = case l of nil => acc | x :: r => \
     go (acc * 10 + x, r) in go (0, xs) end"
  in
  (* sort [3,1,2] = [1,2,3]; encode positionally to check order *)
  check_int ~decs "digits (S.sort [3, 1, 2])" 123;
  check_int ~decs "digits (S.sort [5, 4, 3, 2, 1])" 12345

let test_figure1_runtime () =
  let decs =
    "signature PARTIAL_ORDER = sig type elem val less : elem * elem -> bool \
     end\n\
     signature SORT = sig type t val sort : t list -> t list end\n\
     functor TopSort (P : PARTIAL_ORDER) : SORT = struct\n\
       type t = P.elem\n\
       fun insert (x, nil) = [x]\n\
         | insert (x, y :: ys) = if P.less (x, y) then x :: y :: ys else y :: \
     insert (x, ys)\n\
       fun sort nil = nil | sort (x :: xs) = insert (x, sort xs)\n\
     end\n\
     structure Factors : PARTIAL_ORDER = struct type elem = int fun less (i, \
     j) = j mod i = 0 end\n\
     structure FSort : SORT = TopSort(Factors)\n\
     fun digits xs = let fun go (acc, l) = case l of nil => acc | x :: r => \
     go (acc * 10 + x, r) in go (0, xs) end"
  in
  (* the result must be a permutation of the input, encoded as digits *)
  match run ~decs "digits (FSort.sort [6, 2, 3])" with
  | Value.Vint n, _ ->
    Alcotest.(check bool)
      "a permutation of 2,3,6 encoded as digits"
      true
      (List.mem n [ 236; 263; 326; 362; 623; 632 ])
  | v, _ -> Alcotest.fail ("figure 1 sort returned " ^ Value.to_string v)

let test_functor_exception_generativity () =
  (* exceptions declared in a functor body are generative per application *)
  let decs =
    "functor F (X : sig end) = struct exception E val throw = fn () => raise \
     E fun catch f = (f (); 0) handle E => 1 end\n\
     structure E0 = struct end\n\
     structure A = F(E0)\n\
     structure B = F(E0)"
  in
  (* A catches its own exception *)
  check_int ~decs "A.catch A.throw" 1;
  (* but B's handler does not catch A's packet *)
  check_raises ~decs "B.catch A.throw" "E"

let test_opaque_runtime () =
  let decs =
    "signature STACK = sig type t val empty : t val push : int * t -> t val \
     top : t -> int end\n\
     structure Stack :> STACK = struct type t = int list val empty = nil fun \
     push (x, s) = x :: s fun top s = case s of x :: _ => x | nil => raise \
     Subscript end"
  in
  check_int ~decs "Stack.top (Stack.push (7, Stack.empty))" 7;
  check_raises ~decs "Stack.top Stack.empty" "Subscript"

let test_string_ops () =
  check_int "stringToInt \"123\"" 123;
  check_int "stringToInt \"~5\"" (-5);
  check_raises "stringToInt \"xyz\"" "Fail";
  check_string "intToString (~7)" "~7"

(* SML integer text is [~?[0-9]+] both ways, min_int included (its
   negation overflows back to itself) *)
let test_integer_text () =
  check_string "intToString ~4611686018427387904" "~4611686018427387904";
  List.iter
    (fun s -> check_raises (Printf.sprintf "stringToInt %S" s) "Fail")
    [ "0x10"; "-5"; "1_000"; "0b11"; "+5"; ""; "~"; "4611686018427387904" ];
  List.iter
    (fun (lit, n) ->
      check_int (Printf.sprintf "stringToInt (intToString %s)" lit) n)
    [
      ("~4611686018427387904", min_int);
      ("4611686018427387903", max_int);
      ("0", 0);
      ("~1", -1);
    ]

let test_basis_structures () =
  check_string "Int.toString (21 * 2)" "42";
  check_int "Int.fromString \"17\"" 17;
  check_int "String.size (String.concat (\"ab\", \"cde\"))" 5;
  check_bool "Bool.not (1 > 2)" true;
  (* basis structures survive opening *)
  check_string ~decs:"open Int" "toString 9" "9";
  (* and thread through user modules *)
  check_string
    ~decs:"structure Fmt = struct fun render n = \"<\" ^ Int.toString n ^ \">\" end"
    "Fmt.render 5" "<5>";
  (* static-only basis structures can be aliased and passed to functors
     (their runtime record is synthesized on demand) *)
  check_string ~decs:"structure MyInt = Int" "MyInt.toString 3" "3";
  check_string
    ~decs:
      "functor Render (X : sig val toString : int -> string end) = struct \
       fun go n = X.toString (n * 2) end\n\
       structure R = Render(Int)"
    "R.go 21" "42"

let test_polymorphic_equality () =
  check_bool "[1, 2] = [1, 2]" true;
  check_bool "(1, \"a\") = (1, \"b\")" false;
  check_bool ~decs:"datatype c = R | G | B" "R = R andalso R <> G" true

let test_higher_order () =
  let decs =
    "datatype 'a option = NONE | SOME of 'a\n\
     fun map f xs = case xs of nil => nil | x :: r => f x :: map f r\n\
     fun foldl f acc xs = case xs of nil => acc | x :: r => foldl f (f (acc, \
     x)) r"
  in
  check_int ~decs "foldl (fn (a, x) => a + x) 0 (map (fn x => x * x) [1, 2, 3])" 14;
  (* constructor used as a first-class function *)
  check_int ~decs "case map SOME [1] of SOME x :: _ => x | _ => 0" 1

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "closures and currying" `Quick test_closures_and_currying;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "lists and matching" `Quick test_lists_and_matching;
    Alcotest.test_case "nested patterns" `Quick test_nested_patterns;
    Alcotest.test_case "match failure" `Quick test_match_failure;
    Alcotest.test_case "exceptions" `Quick test_exceptions;
    Alcotest.test_case "exception generativity" `Quick test_exception_generativity;
    Alcotest.test_case "refs" `Quick test_refs;
    Alcotest.test_case "print" `Quick test_print;
    Alcotest.test_case "structures" `Quick test_structures_runtime;
    Alcotest.test_case "ascription thinning" `Quick test_ascription_thinning;
    Alcotest.test_case "functor runtime" `Quick test_functor_runtime;
    Alcotest.test_case "figure 1 runtime" `Quick test_figure1_runtime;
    Alcotest.test_case "functor exception generativity" `Quick
      test_functor_exception_generativity;
    Alcotest.test_case "opaque ascription runtime" `Quick test_opaque_runtime;
    Alcotest.test_case "string primitives" `Quick test_string_ops;
    Alcotest.test_case "integer text" `Quick test_integer_text;
    Alcotest.test_case "basis structures" `Quick test_basis_structures;
    Alcotest.test_case "polymorphic equality" `Quick test_polymorphic_equality;
    Alcotest.test_case "higher-order functions" `Quick test_higher_order;
  ]
