(* Elaboration: HM inference, datatypes, modules, signature matching,
   functors — including the paper's figure 1 transparency property. *)

module Context = Statics.Context
module Basis = Statics.Basis
module Elaborate = Statics.Elaborate
module Unify = Statics.Unify
module Types = Statics.Types
module Tyformat = Statics.Tyformat
module Parser = Lang.Parser
module Diag = Support.Diag

let setup () =
  let ctx = Context.create () in
  Basis.register ctx;
  (ctx, Basis.env)

let infer ?(decs = "") src =
  let ctx, env = setup () in
  let env =
    if decs = "" then env
    else
      let delta, _ =
        Elaborate.elab_decs ctx env (Parser.parse_decs ~file:"pre.sml" decs)
      in
      Types.env_union env delta
  in
  let _texp, ty = Elaborate.elab_exp ctx env (Parser.parse_exp ~file:"t.sml" src) in
  Tyformat.ty_to_string ctx ty

let check_ty ?decs src expected =
  Alcotest.(check string) src expected (infer ?decs src)

let check_fails ?(decs = "") src =
  let ctx, env = setup () in
  let result =
    Diag.guard (fun () ->
        let env =
          if decs = "" then env
          else
            let delta, _ =
              Elaborate.elab_decs ctx env (Parser.parse_decs ~file:"pre.sml" decs)
            in
            Types.env_union env delta
        in
        Elaborate.elab_exp ctx env (Parser.parse_exp ~file:"t.sml" src))
  in
  match result with
  | Error d ->
    Alcotest.(check bool)
      ("fails in elaboration: " ^ src)
      true
      (d.Diag.phase = Diag.Elaborate)
  | Ok _ -> Alcotest.fail ("expected type error: " ^ src)

let check_decs_fail src =
  let ctx, env = setup () in
  match
    Diag.guard (fun () ->
        Elaborate.elab_decs ctx env (Parser.parse_decs ~file:"t.sml" src))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail ("expected elaboration error: " ^ src)

let test_core_inference () =
  check_ty "1 + 2" "int";
  check_ty "\"a\" ^ \"b\"" "string";
  (let printed = infer "fn x => x" in
   match String.index_opt printed '-' with
   | Some i ->
     let lhs = String.trim (String.sub printed 0 i) in
     let rhs =
       String.trim (String.sub printed (i + 2) (String.length printed - i - 2))
     in
     Alcotest.(check string) "identity: domain = codomain" lhs rhs
   | None -> Alcotest.fail "identity should have an arrow type");
  check_ty "(1, \"two\", true)" "int * string * bool";
  check_ty "[1, 2, 3]" "int list";
  check_ty "if 1 < 2 then \"y\" else \"n\"" "string";
  check_ty "let val id = fn x => x in (id 1, id \"s\") end" "int * string"

let test_inference_failures () =
  check_fails "1 + \"two\"";
  check_fails "if 1 then 2 else 3";
  check_fails "[1, \"two\"]";
  check_fails "(fn x => x + 1) \"s\"";
  check_fails "x";
  (* unbound *)
  check_fails "case 1 of true => 2 | false => 3"

let test_value_restriction () =
  (* expansive binding: no generalization, so using at two types fails *)
  check_fails
    ~decs:"val r = ref nil"
    "(r := [1]; r := [\"s\"]; 0)";
  (* non-expansive: fine *)
  check_ty ~decs:"val id = fn x => x" "(id 1, id \"s\")" "int * string"

let test_datatypes () =
  let decs =
    "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree\n\
     fun size t = case t of Leaf => 0 | Node (l, _, r) => 1 + size l + size r"
  in
  check_ty ~decs "size (Node (Leaf, 7, Leaf))" "int";
  check_ty ~decs "Node (Leaf, \"x\", Leaf)" "string tree";
  check_fails ~decs "Node (Leaf, 1, Node (Leaf, \"s\", Leaf))"

let test_exceptions () =
  let decs = "exception Overflow of int" in
  (* raise has a free result type; just confirm it elaborates *)
  ignore (infer ~decs "raise Overflow 3");
  check_ty ~decs "(raise Overflow 3) handle Overflow n => n | _ => 0" "int";
  check_fails ~decs "raise 3"

let test_recursion () =
  check_ty
    ~decs:"fun fact n = if n = 0 then 1 else n * fact (n - 1)"
    "fact 5" "int";
  check_ty
    ~decs:
      "fun even n = if n = 0 then true else odd (n - 1)\n\
       and odd n = if n = 0 then false else even (n - 1)"
    "even 10" "bool"

let test_structures () =
  let decs =
    "structure A = struct val x = 1 val y = \"s\" end\n\
     structure B = struct structure Inner = A val z = A.x + 1 end"
  in
  check_ty ~decs "A.x + B.z" "int";
  check_ty ~decs "B.Inner.y" "string";
  check_fails ~decs "A.missing"

let test_transparent_ascription () =
  let decs =
    "signature S = sig type t val x : t end\n\
     structure M : S = struct type t = int val x = 3 val hidden = 4 end"
  in
  (* transparent: t is known to be int *)
  check_ty ~decs "M.x + 1" "int";
  (* but hidden components are gone *)
  check_fails ~decs "M.hidden"

let test_opaque_ascription () =
  let decs =
    "signature S = sig type t val x : t val get : t -> int end\n\
     structure M :> S = struct type t = int val x = 3 fun get n = n end"
  in
  (* opaque: t is abstract *)
  check_fails ~decs "M.x + 1";
  check_ty ~decs "M.get M.x" "int"

let test_signature_mismatch () =
  check_decs_fail
    "signature S = sig val x : int end\n\
     structure M : S = struct val x = \"s\" end";
  check_decs_fail
    "signature S = sig type t val x : t end\n\
     structure M : S = struct val x = 3 end";
  check_decs_fail
    "signature S = sig val f : 'a -> 'a end\n\
     structure M : S = struct fun f x = x + 1 end"

let test_where_type () =
  let decs =
    "signature S = sig type t val x : t end\n\
     signature SI = S where type t = int\n\
     structure M : SI = struct type t = int val x = 3 end"
  in
  check_ty ~decs "M.x + 1" "int"

let test_functor_basic () =
  let decs =
    "signature ORD = sig type elem val less : elem * elem -> bool end\n\
     functor MinOf (O : ORD) = struct fun min (a, b) = if O.less (a, b) then \
     a else b end\n\
     structure IntOrd = struct type elem = int fun less (a, b) = a < b end\n\
     structure M = MinOf(IntOrd)"
  in
  (* transparent propagation through the functor: elem = int *)
  check_ty ~decs "M.min (1, 2)" "int"

let test_figure1_transparency () =
  (* The paper's figure 1: FSort.t = int propagates through TopSort. *)
  let decs =
    "signature PARTIAL_ORDER = sig type elem val less : elem * elem -> bool \
     end\n\
     signature SORT = sig type t val sort : t list -> t list end\n\
     functor TopSort (P : PARTIAL_ORDER) : SORT = struct type t = P.elem fun \
     sort xs = xs end\n\
     structure Factors : PARTIAL_ORDER = struct type elem = int fun less (i, \
     j) = j mod i = 0 end\n\
     structure FSort : SORT = TopSort(Factors)"
  in
  (* As the paper says: FSort.t is the same as int, and that is visible. *)
  check_ty ~decs "FSort.sort [6, 2, 3]" "int list"

let test_functor_generativity () =
  (* opaque result: two applications yield distinct abstract types *)
  let decs =
    "signature S = sig type t val mk : int -> t val un : t -> int end\n\
     functor F (X : sig end) :> S = struct type t = int fun mk n = n fun un \
     n = n end\n\
     structure E = struct end\n\
     structure A = F(E)\n\
     structure B = F(E)"
  in
  check_ty ~decs "A.un (A.mk 3)" "int";
  (* mixing A.t and B.t must fail *)
  check_fails ~decs "B.un (A.mk 3)"

let test_datatype_through_functor () =
  let decs =
    "functor F (X : sig type t end) = struct datatype box = Box of X.t fun \
     unbox (Box v) = v end\n\
     structure A = F(struct type t = int end)"
  in
  check_ty ~decs "A.unbox (A.Box 3)" "int"

let test_open () =
  let decs =
    "structure A = struct val x = 1 datatype color = Red | Blue end\n\
     open A"
  in
  check_ty ~decs "x + 1" "int";
  check_ty ~decs "case Red of Red => 0 | Blue => 1" "int"

let test_local () =
  let decs =
    "local val helper = 10 in val visible = helper + 1 end"
  in
  check_ty ~decs "visible" "int";
  check_fails ~decs "helper"

let test_unit_discipline () =
  let ctx, env = setup () in
  let unit_ =
    Parser.parse_unit ~file:"u.sml" "val x = 3"
  in
  (match
     Diag.guard (fun () -> Elaborate.elab_compilation_unit ctx env unit_)
   with
  | Error d ->
    Alcotest.(check bool) "unit discipline enforced" true
      (d.Diag.phase = Diag.Elaborate)
  | Ok _ -> Alcotest.fail "top-level val must be rejected in units");
  let ok = Parser.parse_unit ~file:"u.sml" "structure A = struct val x = 3 end" in
  match Diag.guard (fun () -> Elaborate.elab_compilation_unit ctx env ok) with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Diag.to_string d)

let test_nested_functors () =
  (* higher-order composition expressed through nesting structures *)
  let decs =
    "signature T = sig type t val v : t end\n\
     functor Pair (X : T) = struct structure Fst = X type t = X.t * X.t val \
     v = (X.v, X.v) end\n\
     structure I = struct type t = int val v = 1 end\n\
     structure P = Pair(I)\n\
     structure PP = Pair(P)"
  in
  check_ty ~decs "PP.v" "(int * int) * (int * int)";
  check_ty ~decs "P.Fst.v + 1" "int"

let test_include () =
  let decs =
    "signature HAS_T = sig type t end\n\
     signature HAS_BOTH = sig include HAS_T val x : t end\n\
     structure M : HAS_BOTH = struct type t = int val x = 1 end"
  in
  check_ty ~decs "M.x + 1" "int";
  (* include of a named signature instantiates a fresh copy: two
     structures matching HAS_BOTH don't share t *)
  let decs2 =
    decs
    ^ "\nstructure N :> HAS_BOTH = struct type t = string val x = \"s\" end"
  in
  check_fails ~decs:decs2 "M.x = N.x"

let test_where_type_parameterized () =
  let decs =
    "signature COLL = sig type 'a t val single : 'a -> 'a t end\n\
     signature LISTCOLL = COLL where type 'a t = 'a list\n\
     structure L : LISTCOLL = struct type 'a t = 'a list fun single x = [x] \
     end"
  in
  check_ty ~decs "L.single 3" "int list";
  (* manifest equality is usable by clients *)
  check_ty ~decs "case L.single 3 of x :: _ => x | nil => 0" "int"

let test_slet () =
  let decs =
    "structure S = let val hidden = 40 in struct val visible = hidden + 2 \
     end end"
  in
  check_ty ~decs "S.visible" "int";
  check_fails ~decs "hidden"

let test_local_structures () =
  let decs =
    "local structure Helper = struct val h = 5 end in structure Public = \
     struct val p = Helper.h * 2 end end"
  in
  check_ty ~decs "Public.p" "int";
  check_fails ~decs "Helper.h"

let test_opaque_functor_ascription () =
  let decs =
    "signature S = sig type t val mk : int -> t end\n\
     functor F (X : sig end) :> S = struct type t = int fun mk n = n end\n\
     structure A = F(struct end)"
  in
  check_ty ~decs "A.mk 3" "t";
  check_fails ~decs "A.mk 3 + 1"

let test_signature_reuse_across_structures () =
  (* one named signature, two opaque structures: distinct abstract types *)
  let decs =
    "signature S = sig type t val mk : int -> t val un : t -> int end\n\
     structure A :> S = struct type t = int fun mk n = n fun un n = n end\n\
     structure B :> S = struct type t = int fun mk n = n + 1 fun un n = n - \
     1 end"
  in
  check_ty ~decs "A.un (A.mk 1) + B.un (B.mk 1)" "int";
  check_fails ~decs "A.un (B.mk 1)"

let test_functor_result_where () =
  let decs =
    "signature S = sig type t val v : t end\n\
     functor F (X : sig val n : int end) : S where type t = int = struct \
     type t = int val v = X.n end\n\
     structure R = F(struct val n = 9 end)"
  in
  check_ty ~decs "R.v + 1" "int"

let suite =
  [
    Alcotest.test_case "include spec" `Quick test_include;
    Alcotest.test_case "where type, parameterized" `Quick
      test_where_type_parameterized;
    Alcotest.test_case "let structure expressions" `Quick test_slet;
    Alcotest.test_case "local structures" `Quick test_local_structures;
    Alcotest.test_case "opaque functor ascription" `Quick
      test_opaque_functor_ascription;
    Alcotest.test_case "signature reuse, distinct abstraction" `Quick
      test_signature_reuse_across_structures;
    Alcotest.test_case "functor result where type" `Quick
      test_functor_result_where;
    Alcotest.test_case "core inference" `Quick test_core_inference;
    Alcotest.test_case "inference failures" `Quick test_inference_failures;
    Alcotest.test_case "value restriction" `Quick test_value_restriction;
    Alcotest.test_case "datatypes" `Quick test_datatypes;
    Alcotest.test_case "exceptions" `Quick test_exceptions;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "structures and paths" `Quick test_structures;
    Alcotest.test_case "transparent ascription" `Quick
      test_transparent_ascription;
    Alcotest.test_case "opaque ascription" `Quick test_opaque_ascription;
    Alcotest.test_case "signature mismatches" `Quick test_signature_mismatch;
    Alcotest.test_case "where type" `Quick test_where_type;
    Alcotest.test_case "functor basics" `Quick test_functor_basic;
    Alcotest.test_case "figure 1 transparency" `Quick
      test_figure1_transparency;
    Alcotest.test_case "functor generativity" `Quick test_functor_generativity;
    Alcotest.test_case "datatype through functor" `Quick
      test_datatype_through_functor;
    Alcotest.test_case "open" `Quick test_open;
    Alcotest.test_case "local" `Quick test_local;
    Alcotest.test_case "unit discipline" `Quick test_unit_discipline;
    Alcotest.test_case "nested functors" `Quick test_nested_functors;
  ]
