(* The lambda simplifier: specific rewrites and their guards. *)

module L = Lambda
module S = Simplify
module Symbol = Support.Symbol
module P = Statics.Prim

let v name = Symbol.intern name
let int n = L.Lint n
let app2 p a b = L.Lapp (L.Lprim p, L.Ltuple [ a; b ])

let check_simplifies msg term expected =
  Alcotest.(check string) msg (L.to_string expected) (L.to_string (S.term term))

let test_constant_folding () =
  check_simplifies "addition" (app2 P.Padd (int 2) (int 3)) (int 5);
  check_simplifies "nested arithmetic"
    (app2 P.Pmul (app2 P.Padd (int 1) (int 2)) (int 4))
    (int 12);
  check_simplifies "comparison" (app2 P.Plt (int 1) (int 2)) (L.Lcon0 1);
  check_simplifies "string concat"
    (app2 P.Pconcat (L.Lstring "a") (L.Lstring "b"))
    (L.Lstring "ab");
  check_simplifies "intToString"
    (L.Lapp (L.Lprim P.Pint_to_string, int (-3)))
    (L.Lstring "~3")

let test_division_by_zero_preserved () =
  (* 1 div 0 must raise Div at run time, so it cannot be folded *)
  let term = app2 P.Pdiv (int 1) (int 0) in
  check_simplifies "div by zero left alone" term term;
  let term2 = app2 P.Pmod (int 1) (int 0) in
  check_simplifies "mod by zero left alone" term2 term2

let test_beta_and_inline () =
  let x = v "x%b1" in
  check_simplifies "beta + fold"
    (L.Lapp (L.Lfn (x, app2 P.Padd (L.Lvar x) (int 1)), int 41))
    (int 42);
  let y = v "y%b2" in
  check_simplifies "atomic let inlined"
    (L.Llet (y, int 7, app2 P.Pmul (L.Lvar y) (L.Lvar y)))
    (int 49)

let test_dead_code () =
  let z = v "z%d1" in
  check_simplifies "dead pure binding dropped"
    (L.Llet (z, L.Ltuple [ int 1; int 2 ], int 0))
    (int 0);
  (* an impure binding is kept even if unused *)
  let w = v "w%d2" in
  let effect = L.Lapp (L.Lprim P.Pprint, L.Lstring "hi") in
  let term = L.Llet (w, effect, int 0) in
  check_simplifies "effectful binding kept" term term

let test_projections () =
  check_simplifies "select from literal tuple"
    (L.Lselect (1, L.Ltuple [ int 10; int 20; int 30 ]))
    (int 20);
  let f = Symbol.intern "field" in
  check_simplifies "field from literal record"
    (L.Lfield (f, L.Lrecord [ (f, int 5) ]))
    (int 5);
  check_simplifies "contag of literal constructor"
    (L.Lcontag (L.Lcon (3, int 0)))
    (int 3);
  check_simplifies "conarg of literal constructor"
    (L.Lconarg (L.Lcon (1, int 9)))
    (int 9)

let test_if_reduction () =
  check_simplifies "if true" (L.Lif (L.Lcon0 1, int 1, int 2)) (int 1);
  check_simplifies "if false" (L.Lif (L.Lcon0 0, int 1, int 2)) (int 2);
  check_simplifies "if with folded condition"
    (L.Lif (app2 P.Peq (int 3) (int 3), int 1, int 2))
    (int 1)

let test_handle_of_pure () =
  let x = v "x%h" in
  check_simplifies "handler around a pure body dropped"
    (L.Lhandle (int 5, x, int 0))
    (int 5)

let test_newexn_not_duplicated () =
  (* generative: a [newexn] binding must never be inlined or dropped *)
  let e = v "e%g" in
  let term =
    L.Llet
      ( e,
        L.Lnewexn (Symbol.intern "E", false),
        L.Ltuple [ L.Lvar e; L.Lvar e ] )
  in
  check_simplifies "newexn stays let-bound" term term

let test_fix_garbage_collection () =
  let f = v "f%f1" and g = v "g%f2" and x = v "x%f3" and y = v "y%f4" in
  let fix =
    L.Lfix
      ( [ (f, x, L.Lapp (L.Lvar f, L.Lvar x)); (g, y, L.Lvar y) ],
        L.Lapp (L.Lvar f, int 1) )
  in
  (* g is dead, f is live *)
  match S.term fix with
  | L.Lfix ([ (kept, _, _) ], _) ->
    Alcotest.(check string) "f kept" (Symbol.name f) (Symbol.name kept)
  | other -> Alcotest.fail ("unexpected: " ^ L.to_string other)

let test_stats () =
  let x = v "x%s" in
  let term = L.Lapp (L.Lfn (x, app2 P.Padd (L.Lvar x) (int 1)), int 1) in
  let _, stats = S.term_with_stats term in
  Alcotest.(check bool) "shrank" true (stats.S.after_nodes < stats.S.before_nodes);
  Alcotest.(check int) "final size" 1 stats.S.after_nodes

(* ------------------------------------------------------------------ *)
(* The shrinker against the bounded-pass oracle                        *)
(* ------------------------------------------------------------------ *)

module Compile = Sepcomp.Compile
module Gen = Workload.Gen
module Pid = Digestkit.Pid

(* the value (closures print as "fn"), the output, or the uncaught
   exception of [code] run by the tree-walking oracle *)
let outcome imports code =
  let buf = Buffer.create 32 in
  let rt =
    Dynamics.Eval.runtime ~output:(Buffer.add_string buf) ~imports ()
  in
  match Oracle_eval.run rt code with
  | v ->
    Printf.sprintf "%s (output %S)" (Dynamics.Value.to_string v)
      (Buffer.contents buf)
  | exception Dynamics.Eval.Sml_raise v ->
    Printf.sprintf "raised %s (output %S)" (Dynamics.Value.to_string v)
      (Buffer.contents buf)

(* every unit of a generated project, unoptimised, with the exports of
   the units before it (generation order is a dependency order) *)
let gen_units ~seed ~rich =
  let fs = Vfs.memory () in
  let profile = if rich then Gen.rich_profile else Gen.default_profile in
  let p =
    Gen.create fs (Gen.Random_dag { units = 10; max_deps = 3; seed }) profile
  in
  let session = Compile.new_session () in
  let _, _, units =
    List.fold_left
      (fun (imports, dynenv, acc) file ->
        let source = Option.get (fs.Vfs.fs_read file) in
        let u =
          Compile.compile ~optimize:false session ~name:file ~source
            ~imports:(List.rev imports)
        in
        let code = u.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_code in
        (u :: imports, Compile.execute u dynenv, (file, dynenv, code) :: acc))
      ([], Link.Linker.empty, []) (Gen.sources p)
  in
  List.rev units

(* the census is exact only if no variable is bound twice in a term *)
let binders_unique term =
  let seen = Symbol.Table.create 64 in
  let fresh v =
    if Symbol.Table.mem seen v then false
    else begin
      Symbol.Table.add seen v ();
      true
    end
  in
  let rec go term =
    (match term with
    | L.Lfn (x, _) | L.Llet (x, _, _) | L.Lhandle (_, x, _) -> fresh x
    | L.Lfix (binds, _) ->
      List.for_all (fun (f, x, _) -> fresh f && fresh x) binds
    | _ -> true)
    && L.fold_subterms (fun ok sub -> ok && go sub) true term
  in
  go term

let test_oracle_gen () =
  List.iter
    (fun seed ->
      List.iter
        (fun (file, imports, code) ->
          let label = Printf.sprintf "seed %d, %s" seed file in
          let shrunk = S.term code and oracle = Oracle_simplify.term code in
          Alcotest.(check bool) (label ^ ": binders unique") true
            (binders_unique code && binders_unique shrunk);
          Alcotest.(check bool)
            (label ^ ": no larger than the oracle's") true
            (L.size shrunk <= L.size oracle);
          Alcotest.(check string) (label ^ ": same value")
            (outcome imports oracle) (outcome imports shrunk))
        (gen_units ~seed ~rich:(seed mod 2 = 1)))
    [ 1; 2; 3; 7919 ]

(* ------------------------------------------------------------------ *)
(* Linearity, as a count                                               *)
(* ------------------------------------------------------------------ *)

(* [n] top-level functions, alternately [let]- and [fix]-bound, each
   calling its predecessor twice (so none is inlined) through an atomic
   alias, beside a dead pure binding — the shape of a translated unit *)
let chain n =
  let rec go i prev =
    if i = n then L.Lapp (L.Lvar prev, int 1)
    else
      let f = Symbol.fresh "f" and x = Symbol.fresh "x" in
      let alias = Symbol.fresh "alias" and dead = Symbol.fresh "dead" in
      let body =
        L.Llet
          ( alias,
            L.Lvar prev,
            L.Llet
              ( dead,
                L.Ltuple [ L.Lvar x; int i ],
                app2 P.Padd
                  (L.Lapp (L.Lvar alias, L.Lvar x))
                  (L.Lapp (L.Lvar alias, app2 P.Pmul (int i) (int 2))) ) )
      in
      let rest = go (i + 1) f in
      if i mod 2 = 0 then L.Llet (f, L.Lfn (x, body), rest)
      else L.Lfix ([ (f, x, body) ], rest)
  in
  let base = Symbol.fresh "base" and y = Symbol.fresh "y" in
  L.Lfix ([ (base, y, L.Lvar y) ], go 0 base)

let visits_of term =
  let m = Obs.Metrics.counter "simplify.visits" in
  let before = Obs.Metrics.value m in
  let shrunk = S.term term in
  (Obs.Metrics.value m - before, shrunk)

let test_linear_visits () =
  let visits n =
    let term = chain n in
    let v, shrunk = visits_of term in
    Alcotest.(check bool)
      (Printf.sprintf "n = %d: shrinks" n)
      true
      (L.size shrunk < L.size term);
    v
  in
  let v250 = visits 250 and v1000 = visits 1000 and v4000 = visits 4000 in
  List.iter
    (fun (small, large) ->
      let ratio = float_of_int large /. float_of_int small in
      if ratio > 4.5 then
        Alcotest.failf "visits grew %.2fx for 4x the functions (%d -> %d)"
          ratio small large)
    [ (v250, v1000); (v1000, v4000) ]

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "division by zero preserved" `Quick
      test_division_by_zero_preserved;
    Alcotest.test_case "beta and inlining" `Quick test_beta_and_inline;
    Alcotest.test_case "dead code" `Quick test_dead_code;
    Alcotest.test_case "projections" `Quick test_projections;
    Alcotest.test_case "if reduction" `Quick test_if_reduction;
    Alcotest.test_case "handle of pure body" `Quick test_handle_of_pure;
    Alcotest.test_case "generative newexn preserved" `Quick
      test_newexn_not_duplicated;
    Alcotest.test_case "dead fix bindings dropped" `Quick
      test_fix_garbage_collection;
    Alcotest.test_case "statistics" `Quick test_stats;
    Alcotest.test_case "no larger than the oracle on generated units" `Quick
      test_oracle_gen;
    Alcotest.test_case "visits grow linearly" `Quick test_linear_visits;
  ]
