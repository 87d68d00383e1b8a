(* Frontend: lexer, parser, pretty-printer. *)

module Token = Lang.Token
module Lexer = Lang.Lexer
module Parser = Lang.Parser
module Pretty = Lang.Pretty
module Ast = Lang.Ast
module Diag = Support.Diag

let tokens src = List.map fst (Lexer.all ~file:"t.sml" src)

let token_strings src =
  tokens src |> List.map Token.to_string |> String.concat " "

let test_lex_basic () =
  Alcotest.(check string)
    "declaration" "val x = 1 + 2 <eof>"
    (token_strings "val x = 1+2");
  Alcotest.(check string)
    "negative literal" "~3 <eof>" (token_strings "~3");
  (* a [~] not followed by a digit is the negation identifier *)
  Alcotest.(check string)
    "negation" "~ x ~ ( a ) ~ 3 <eof>" (token_strings "~ x ~(a) ~ 3");
  Alcotest.(check string)
    "symbolic longest match" ":> : = => -> <eof>"
    (token_strings ":> : = => ->");
  Alcotest.(check string)
    "cons vs colons" ":: : : <eof>" (token_strings ":: : :")

let test_lex_comments () =
  Alcotest.(check string)
    "nested comments skipped" "val x <eof>"
    (token_strings "(* a (* nested *) b *) val (* mid *) x");
  match Diag.guard (fun () -> tokens "(* unterminated") with
  | Error d -> Alcotest.(check bool) "lex phase" true (d.Diag.phase = Diag.Lex)
  | Ok _ -> Alcotest.fail "expected unterminated-comment error"

let test_lex_strings () =
  (match tokens {|"hello\nworld"|} with
  | [ Token.STRING s; Token.EOF ] ->
    Alcotest.(check string) "escape decoded" "hello\nworld" s
  | _ -> Alcotest.fail "bad token stream");
  match tokens {|"\065\066\067"|} with
  | [ Token.STRING s; Token.EOF ] ->
    Alcotest.(check string) "decimal escapes" "ABC" s
  | _ -> Alcotest.fail "bad token stream"

let test_lex_keywords_vs_ids () =
  Alcotest.(check string)
    "keywords recognised" "functor structure signature val <eof>"
    (token_strings "functor structure signature val");
  match tokens "valx functorY" with
  | [ Token.ID "valx"; Token.ID "functorY"; Token.EOF ] -> ()
  | _ -> Alcotest.fail "prefix of keyword must stay an identifier"

(* Integer literals: the full range, [min_int] only as [~]-literal; an
   out-of-range literal is an E0100 lexical error, recovered in place. *)
let test_lex_int_range () =
  (match tokens "4611686018427387903 ~4611686018427387904" with
  | [ Token.INT a; Token.INT b; Token.EOF ] ->
    Alcotest.(check int) "max_int" max_int a;
    Alcotest.(check int) "min_int" min_int b
  | _ -> Alcotest.fail "bad token stream");
  List.iter
    (fun src ->
      match Diag.guard (fun () -> tokens src) with
      | Error d ->
        Alcotest.(check string) (src ^ ": code") "E0100" d.Diag.code;
        Alcotest.(check string)
          (src ^ ": message") "integer literal out of range" d.Diag.message
      | Ok _ -> Alcotest.fail (src ^ ": expected a lexical error"))
    [
      "val big = 99999999999999999999";
      "4611686018427387904";
      "~4611686018427387905";
      "~99999999999999999999999999";
    ];
  let c = Diag.collector () in
  let stream = Lexer.all ~diags:c ~file:"t.sml" "val big = 99999999999999999999;" in
  Alcotest.(check string)
    "a placeholder stands in for the literal" "val big = 0 ; <eof>"
    (List.map (fun (t, _) -> Token.to_string t) stream |> String.concat " ");
  match Diag.diags c with
  | [ d ] ->
    Alcotest.(check string) "code" "E0100" d.Diag.code;
    Alcotest.(check string) "span of the literal" "t.sml:1.10-30"
      (Support.Loc.to_string d.Diag.loc)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* The lexer against its oracle                                        *)
(* ------------------------------------------------------------------ *)

(* same tokens and locations, and — with a collector — the same
   diagnostics; without one, the same first error *)
let lexers_agree ~file src =
  let run lex =
    let c = Diag.collector ~limit:max_int () in
    let stream = lex ~diags:c ~file src in
    (stream, List.map Diag.to_string (Diag.diags c))
  in
  let strict lex =
    match Diag.guard (fun () -> lex ?diags:None ~file src) with
    | Ok stream -> Ok stream
    | Error d -> Error (Diag.to_string d)
  in
  run (fun ~diags -> Lexer.all ~diags) = run (fun ~diags -> Oracle_lexer.all ~diags)
  && strict Lexer.all = strict Oracle_lexer.all

let check_lexers_agree ~file src =
  Alcotest.(check bool) (file ^ ": lexers agree") true (lexers_agree ~file src)

let gen_sources ~seed ~rich =
  let fs = Vfs.memory () in
  let profile =
    if rich then Workload.Gen.rich_profile else Workload.Gen.default_profile
  in
  let p =
    Workload.Gen.create fs
      (Workload.Gen.Random_dag { units = 8; max_deps = 3; seed })
      profile
  in
  List.map
    (fun f -> (f, Option.get (fs.Vfs.fs_read f)))
    (Workload.Gen.sources p)

let test_lexer_oracle_gen () =
  List.iter
    (fun seed ->
      List.iter
        (fun (file, src) -> check_lexers_agree ~file src)
        (gen_sources ~seed ~rich:(seed mod 2 = 0)))
    [ 1; 2; 7; 42; 7919 ]

(* every example source — the OCaml drivers too, whose text is a dense
   run of lexical errors for the recovery path *)
let test_lexer_oracle_examples () =
  let files =
    List.concat_map
      (fun dir ->
        Sys.readdir dir |> Array.to_list |> List.sort String.compare
        |> List.map (Filename.concat dir)
        |> List.filter (fun f ->
               List.exists (Filename.check_suffix f) [ ".ml"; ".sml"; ".cm" ]))
      [ "../examples"; "../examples/miniml" ]
  in
  Alcotest.(check bool) "found the miniml sources" true
    (List.mem "../examples/miniml/sort.sml" files);
  List.iter
    (fun file ->
      check_lexers_agree ~file (In_channel.with_open_bin file In_channel.input_all))
    files

let test_lexer_oracle_keepgoing () =
  List.iter
    (fun kind ->
      List.iter
        (fun (file, src) ->
          check_lexers_agree ~file (Test_keepgoing.apply_breaker kind src))
        (gen_sources ~seed:3 ~rich:true))
    Test_keepgoing.[ Unbound; Mismatch; Syntax; Lex; Header ]

(* arbitrary text over the lexer's alphabet, minus integer literals the
   oracle cannot represent *)
let qcheck_lexer_oracle_text =
  let alphabet = "abdeflnv_'~0129 \n\t\"\\(*)=<>-:;.,|#[]!@^/?&$\r" in
  let gen =
    QCheck.Gen.(
      string_size ~gen:(map (String.get alphabet) (0 -- (String.length alphabet - 1)))
        (0 -- 80))
  in
  let has_long_digit_run s =
    let run = ref 0 and long = ref false in
    String.iter
      (fun ch ->
        if ch >= '0' && ch <= '9' then begin
          incr run;
          if !run >= 19 then long := true
        end
        else run := 0)
      s;
    !long
  in
  QCheck.Test.make ~count:500 ~name:"lexer: tokens and diagnostics = oracle"
    (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun src ->
      QCheck.assume (not (has_long_digit_run src));
      lexers_agree ~file:"q.sml" src)

let parse_exp src = Parser.parse_exp ~file:"t.sml" src

let roundtrip_exp src =
  (* print(parse src) reparses to the same printed form *)
  let once = Pretty.exp_to_string (parse_exp src) in
  let twice = Pretty.exp_to_string (parse_exp once) in
  Alcotest.(check string) ("roundtrip: " ^ src) once twice

let test_parse_precedence () =
  let shows src expected =
    Alcotest.(check string) src expected (Pretty.exp_to_string (parse_exp src))
  in
  shows "1+2*3" "1 + (2 * 3)";
  shows "1*2+3" "(1 * 2) + 3";
  shows "1+2-3" "(1 + 2) - 3";
  shows "1 :: 2 :: nil" "1 :: (2 :: nil)";
  shows "a = b andalso c = d" "a = b andalso c = d";
  shows "x < y orelse x > y" "x < y orelse x > y";
  shows "f x + g y" "(f x) + (g y)"

let test_parse_if_extends_right () =
  let printed =
    Pretty.exp_to_string (parse_exp "if a then b else c andalso d")
  in
  (* the else branch captures the andalso *)
  Alcotest.(check string) "if right extension" "if a then b else c andalso d"
    printed;
  let e = parse_exp "if a then b else c andalso d" in
  match e.Ast.exp_desc with
  | Ast.Eif (_, _, { Ast.exp_desc = Ast.Eandalso _; _ }) -> ()
  | _ -> Alcotest.fail "else branch should contain the andalso"

let test_parse_case_fn () =
  let e = parse_exp "case xs of nil => 0 | x :: rest => 1 + len rest" in
  (match e.Ast.exp_desc with
  | Ast.Ecase (_, [ _; _ ]) -> ()
  | _ -> Alcotest.fail "expected a two-rule case");
  let f = parse_exp "fn (x, y) => x + y" in
  match f.Ast.exp_desc with
  | Ast.Efn [ { Ast.rule_pat = { Ast.pat_desc = Ast.Ptuple [ _; _ ]; _ }; _ } ]
    -> ()
  | _ -> Alcotest.fail "expected fn over a pair pattern"

let test_parse_decs () =
  let decs =
    Parser.parse_decs ~file:"t.sml"
      "val x = 1\n\
       fun fact n = if n = 0 then 1 else n * fact (n - 1)\n\
       datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree\n\
       exception Bad of string\n\
       type point = int * int"
  in
  Alcotest.(check int) "five declarations" 5 (List.length decs);
  match List.map (fun d -> d.Ast.dec_desc) decs with
  | [ Ast.Dval _; Ast.Dfun _; Ast.Ddatatype _; Ast.Dexception _; Ast.Dtype _ ]
    -> ()
  | _ -> Alcotest.fail "unexpected declaration shapes"

let test_parse_modules () =
  let src =
    "signature ORD = sig type elem val less : elem * elem -> bool end\n\
     structure IntOrd : ORD = struct type elem = int fun less (a, b) = a < b \
     end\n\
     functor Sort (O : ORD) = struct fun min (a, b) = if O.less (a, b) then a \
     else b end\n\
     structure S = Sort(IntOrd)"
  in
  let unit_ = Parser.parse_unit ~file:"m.sml" src in
  Alcotest.(check int) "four declarations" 4 (List.length unit_.Ast.unit_decs);
  match List.map (fun d -> d.Ast.dec_desc) unit_.Ast.unit_decs with
  | [ Ast.Dsignature _; Ast.Dstructure [ (_, Some (Ast.Transparent _), _) ];
      Ast.Dfunctor [ fb ]; Ast.Dstructure [ (_, None, app) ] ] -> (
    Alcotest.(check string) "functor name" "Sort"
      (Support.Symbol.name fb.Ast.fct_name);
    match app.Ast.str_desc with
    | Ast.Sapp (path, _) ->
      Alcotest.(check string) "application head" "Sort"
        (Ast.path_to_string path)
    | _ -> Alcotest.fail "expected functor application")
  | _ -> Alcotest.fail "unexpected module declarations"

let test_parse_opaque_and_where () =
  let src =
    "structure S :> sig type t val x : t end = struct type t = int val x = 3 \
     end\n\
     signature K = sig type t val v : t end where type t = int"
  in
  let unit_ = Parser.parse_unit ~file:"w.sml" src in
  match List.map (fun d -> d.Ast.dec_desc) unit_.Ast.unit_decs with
  | [ Ast.Dstructure [ (_, Some (Ast.Opaque _), _) ];
      Ast.Dsignature [ (_, { Ast.sig_desc = Ast.Gwhere (_, [ ws ]); _ }) ] ] ->
    Alcotest.(check string) "where path" "t" (Ast.path_to_string ws.Ast.ws_path)
  | _ -> Alcotest.fail "unexpected shapes for opaque/where"

let test_parse_figure1 () =
  (* The paper's figure 1, verbatim modulo our ascii syntax. *)
  let src =
    "signature PARTIAL_ORDER = sig type elem val less : elem * elem -> bool \
     end\n\
     signature SORT = sig type t val sort : t list -> t list end\n\
     functor TopSort (P : PARTIAL_ORDER) : SORT = struct type t = P.elem \
     fun sort xs = xs end\n\
     structure Factors : PARTIAL_ORDER = struct type elem = int fun less (i, \
     j) = j mod i = 0 end\n\
     structure FSort : SORT = TopSort(Factors)"
  in
  let unit_ = Parser.parse_unit ~file:"fig1.sml" src in
  Alcotest.(check int) "five declarations" 5 (List.length unit_.Ast.unit_decs)

(* a [min_int] literal prints as SML text wherever a token or an
   expression is shown: in a syntax error and in the pretty-printer *)
let test_min_int_text () =
  let src = "structure A = struct type t = ~4611686018427387904 end" in
  (match Diag.guard (fun () -> Parser.parse_unit ~file:"e.sml" src) with
  | Error d ->
    Alcotest.(check string) "code" "E0200" d.Diag.code;
    Alcotest.(check string)
      "message" "expected a type but found '~4611686018427387904'"
      d.Diag.message
  | Ok _ -> Alcotest.fail "expected a syntax error");
  Alcotest.(check string)
    "pretty" "~4611686018427387904 + ~1"
    (Pretty.exp_to_string (parse_exp "~4611686018427387904 + ~1"));
  roundtrip_exp "~4611686018427387904"

let test_parse_errors () =
  let fails src =
    match Diag.guard (fun () -> Parser.parse_unit ~file:"e.sml" src) with
    | Error d -> Alcotest.(check bool) src true (d.Diag.phase = Diag.Parse)
    | Ok _ -> Alcotest.fail ("expected parse error: " ^ src)
  in
  fails "val = 3";
  fails "structure = struct end";
  fails "val x = (1,";
  fails "fun f = 3";
  (* clause must have arguments *)
  fails "signature S = sig val x end"

let test_roundtrip_corpus () =
  List.iter roundtrip_exp
    [
      "1 + 2 * 3";
      "let val x = 1 val y = 2 in x + y end";
      "fn x => fn y => x y";
      "case p of (a, b) => a :: b";
      "if a andalso b then [1, 2] else nil";
      "(f x; g y; h z)";
      "#1 (1, \"two\")";
      "raise Fail \"no\"";
      "(f x handle Bad m => m)";
      "op + (1, 2)";
    ]

let qcheck_roundtrip_int_exprs =
  (* Random arithmetic expressions: print-parse-print is stable. *)
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then map string_of_int (0 -- 99)
          else
            frequency
              [
                (1, map string_of_int (0 -- 99));
                ( 2,
                  map2
                    (fun a b -> Printf.sprintf "(%s + %s)" a b)
                    (self (n / 2)) (self (n / 2)) );
                ( 2,
                  map2
                    (fun a b -> Printf.sprintf "(%s * %s)" a b)
                    (self (n / 2)) (self (n / 2)) );
                ( 1,
                  map3
                    (fun a b c ->
                      Printf.sprintf "(if %s < %s then %s else 0)" a b c)
                    (self (n / 3)) (self (n / 3)) (self (n / 3)) );
              ]))
  in
  QCheck.Test.make ~count:100 ~name:"parser: print-parse-print stable"
    (QCheck.make gen) (fun src ->
      let once = Pretty.exp_to_string (parse_exp src) in
      let twice = Pretty.exp_to_string (parse_exp once) in
      String.equal once twice)

let suite =
  [
    Alcotest.test_case "lex basics" `Quick test_lex_basic;
    Alcotest.test_case "lex nested comments" `Quick test_lex_comments;
    Alcotest.test_case "lex string escapes" `Quick test_lex_strings;
    Alcotest.test_case "lex keywords vs identifiers" `Quick
      test_lex_keywords_vs_ids;
    Alcotest.test_case "infix precedence" `Quick test_parse_precedence;
    Alcotest.test_case "if extends right" `Quick test_parse_if_extends_right;
    Alcotest.test_case "case and fn" `Quick test_parse_case_fn;
    Alcotest.test_case "core declarations" `Quick test_parse_decs;
    Alcotest.test_case "module declarations" `Quick test_parse_modules;
    Alcotest.test_case "opaque ascription and where type" `Quick
      test_parse_opaque_and_where;
    Alcotest.test_case "paper figure 1 parses" `Quick test_parse_figure1;
    Alcotest.test_case "syntax errors are reported" `Quick test_parse_errors;
    Alcotest.test_case "pretty/parse roundtrips" `Quick test_roundtrip_corpus;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_int_exprs;
    Alcotest.test_case "lex integer range" `Quick test_lex_int_range;
    Alcotest.test_case "min_int literal text" `Quick test_min_int_text;
    Alcotest.test_case "lexer = oracle on generated projects" `Quick
      test_lexer_oracle_gen;
    Alcotest.test_case "lexer = oracle on the examples" `Quick
      test_lexer_oracle_examples;
    Alcotest.test_case "lexer = oracle on keep-going breakers" `Quick
      test_lexer_oracle_keepgoing;
    QCheck_alcotest.to_alcotest qcheck_lexer_oracle_text;
  ]
