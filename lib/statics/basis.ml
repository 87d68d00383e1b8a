module Symbol = Support.Symbol
open Types

let int_stamp = Stamp.Global 0
let bool_stamp = Stamp.Global 1
let string_stamp = Stamp.Global 2
let list_stamp = Stamp.Global 3
let ref_stamp = Stamp.Global 4
let exn_stamp = Stamp.Global 5

(* Exceptions use the stamp space 100… so more tycons can be added
   before them without renumbering. *)
let match_stamp = Stamp.Global 100
let bind_stamp = Stamp.Global 101
let div_stamp = Stamp.Global 102
let fail_stamp = Stamp.Global 103
let subscript_stamp = Stamp.Global 104
let overflow_stamp = Stamp.Global 105

let int_ty = Tcon (int_stamp, [])
let bool_ty = Tcon (bool_stamp, [])
let string_ty = Tcon (string_stamp, [])
let unit_ty = Ttuple []
let exn_ty = Tcon (exn_stamp, [])
let list_ty elem = Tcon (list_stamp, [ elem ])
let ref_ty elem = Tcon (ref_stamp, [ elem ])

let false_cd =
  { cd_name = Symbol.intern "false"; cd_arg = None; cd_tag = 0; cd_span = 2 }

let true_cd =
  { cd_name = Symbol.intern "true"; cd_arg = None; cd_tag = 1; cd_span = 2 }

let nil_cd =
  { cd_name = Symbol.intern "nil"; cd_arg = None; cd_tag = 0; cd_span = 2 }

let cons_cd =
  {
    cd_name = Symbol.intern "::";
    cd_arg = Some (Ttuple [ Tgen 0; Tcon (list_stamp, [ Tgen 0 ]) ]);
    cd_tag = 1;
    cd_span = 2;
  }

let exn_stamps =
  [
    ("Match", match_stamp, None);
    ("Bind", bind_stamp, None);
    ("Div", div_stamp, None);
    ("Fail", fail_stamp, Some string_ty);
    ("Subscript", subscript_stamp, None);
    ("Overflow", overflow_stamp, None);
  ]

let tycon_infos =
  [
    (int_stamp, { tyc_name = Symbol.intern "int"; tyc_arity = 0; tyc_defn = Abstract });
    ( bool_stamp,
      {
        tyc_name = Symbol.intern "bool";
        tyc_arity = 0;
        tyc_defn = Data [ false_cd; true_cd ];
      } );
    ( string_stamp,
      { tyc_name = Symbol.intern "string"; tyc_arity = 0; tyc_defn = Abstract } );
    ( list_stamp,
      {
        tyc_name = Symbol.intern "list";
        tyc_arity = 1;
        tyc_defn = Data [ nil_cd; cons_cd ];
      } );
    (ref_stamp, { tyc_name = Symbol.intern "ref"; tyc_arity = 1; tyc_defn = Abstract });
    (exn_stamp, { tyc_name = Symbol.intern "exn"; tyc_arity = 0; tyc_defn = Abstract });
  ]

let register ctx =
  List.iter (fun (stamp, info) -> Context.register ctx stamp info) tycon_infos

(* Type schemes of the primitives. *)
let prim_scheme prim =
  let ii_i = monotype (Tarrow (Ttuple [ int_ty; int_ty ], int_ty)) in
  let ii_b = monotype (Tarrow (Ttuple [ int_ty; int_ty ], bool_ty)) in
  let a = Tgen 0 in
  match prim with
  | Prim.Padd | Prim.Psub | Prim.Pmul | Prim.Pdiv | Prim.Pmod -> ii_i
  | Prim.Pneg -> monotype (Tarrow (int_ty, int_ty))
  | Prim.Plt | Prim.Ple | Prim.Pgt | Prim.Pge -> ii_b
  | Prim.Peq | Prim.Pneq -> { arity = 1; body = Tarrow (Ttuple [ a; a ], bool_ty) }
  | Prim.Pconcat -> monotype (Tarrow (Ttuple [ string_ty; string_ty ], string_ty))
  | Prim.Psize -> monotype (Tarrow (string_ty, int_ty))
  | Prim.Pint_to_string -> monotype (Tarrow (int_ty, string_ty))
  | Prim.Pstring_to_int -> monotype (Tarrow (string_ty, int_ty))
  | Prim.Pnot -> monotype (Tarrow (bool_ty, bool_ty))
  | Prim.Pref -> { arity = 1; body = Tarrow (a, ref_ty a) }
  | Prim.Pderef -> { arity = 1; body = Tarrow (ref_ty a, a) }
  | Prim.Passign -> { arity = 1; body = Tarrow (Ttuple [ ref_ty a; a ], unit_ty) }
  | Prim.Pprint -> monotype (Tarrow (string_ty, unit_ty))
  | Prim.Pexit -> { arity = 1; body = Tarrow (int_ty, a) }

let env () =
  let env = empty_env in
  (* tycons *)
  let env =
    List.fold_left
      (fun env (stamp, info) -> bind_tycon info.tyc_name stamp env)
      env tycon_infos
  in
  (* unit as a type abbreviation is spelled via the empty tuple; there is
     no [unit] tycon, but we bind the name for convenience. *)
  (* datatype constructors *)
  let bind_con tystamp params cd env =
    let result = Tcon (tystamp, List.init params (fun i -> Tgen i)) in
    let body =
      match cd.cd_arg with
      | None -> result
      | Some arg -> Tarrow (arg, result)
    in
    bind_val cd.cd_name
      {
        vi_scheme = { arity = params; body };
        vi_kind = Vcon (tystamp, cd);
        vi_addr = AdNone;
      }
      env
  in
  let env = bind_con bool_stamp 0 false_cd env in
  let env = bind_con bool_stamp 0 true_cd env in
  let env = bind_con list_stamp 1 nil_cd env in
  let env = bind_con list_stamp 1 cons_cd env in
  (* standard exceptions; their runtime identities are provided by the
     dynamic basis under the same names *)
  let env =
    List.fold_left
      (fun env (name, stamp, arg) ->
        let sym = Symbol.intern name in
        let body =
          match arg with None -> exn_ty | Some ty -> Tarrow (ty, exn_ty)
        in
        bind_val sym
          {
            vi_scheme = monotype body;
            vi_kind = Vexn stamp;
            vi_addr = AdBasisExn sym;
          }
          env)
      env exn_stamps
  in
  (* primitives *)
  let env =
    List.fold_left
      (fun env prim ->
        bind_val
          (Symbol.intern (Prim.name prim))
          { vi_scheme = prim_scheme prim; vi_kind = Vplain; vi_addr = AdPrim prim }
          env)
      env Prim.all
  in
  (* pervasive basis structures: qualified names over the same
     primitives (their addresses are absolute, so no runtime record is
     needed) *)
  let prim_val name prim acc =
    bind_val (Symbol.intern name)
      { vi_scheme = prim_scheme prim; vi_kind = Vplain; vi_addr = AdPrim prim }
      acc
  in
  let basis_structure stamp_id name bindings tycons =
    let str_env =
      List.fold_left (fun acc f -> f acc) empty_env bindings
      |> fun e ->
      List.fold_left (fun acc (n, s) -> bind_tycon (Symbol.intern n) s acc) e tycons
    in
    bind_str (Symbol.intern name)
      {
        str_stamp = Stamp.Global stamp_id;
        str_env;
        str_addr = AdNone;
      }
  in
  let env =
    basis_structure 200 "Int"
      [
        prim_val "toString" Prim.Pint_to_string;
        prim_val "fromString" Prim.Pstring_to_int;
      ]
      [ ("int", int_stamp) ]
      env
  in
  let env =
    basis_structure 201 "String"
      [
        prim_val "size" Prim.Psize;
        prim_val "concat" Prim.Pconcat;
      ]
      [ ("string", string_stamp) ]
      env
  in
  let env =
    basis_structure 202 "Bool"
      [ prim_val "not" Prim.Pnot ]
      [ ("bool", bool_stamp) ]
      env
  in
  env
