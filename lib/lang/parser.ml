module Symbol = Support.Symbol
module Loc = Support.Loc
module Diag = Support.Diag
open Ast

type state = { lx : Lexer.t; diags : Diag.collector option }

let err st fmt = Diag.error Diag.Parse (Lexer.loc st.lx) fmt

let starts_dec = function
  | Token.VAL | Token.FUN | Token.TYPE | Token.DATATYPE | Token.EXCEPTION
  | Token.STRUCTURE | Token.SIGNATURE | Token.FUNCTOR | Token.LOCAL
  | Token.OPEN ->
    true
  | _ -> false

(* Error recovery: skip tokens until something that can plausibly
   follow a broken declaration — the start of the next declaration, a
   scope delimiter the enclosing construct is waiting for, or EOF.
   [parse_dec] always consumes its leading keyword before it can fail,
   so each recovery round makes progress. *)
let sync_to_dec st =
  let rec skip () =
    match Lexer.peek st.lx with
    | Token.EOF | Token.IN | Token.END -> ()
    | tok when starts_dec tok -> ()
    | _ ->
      ignore (Lexer.next st.lx);
      skip ()
  in
  skip ()

(* [expect] and [accept] are only ever given a constant token, which
   equals a token exactly when it is the same immediate *)
let expect st tok =
  let got = Lexer.peek st.lx in
  if got == tok then ignore (Lexer.next st.lx)
  else
    err st "expected '%s' but found '%s'" (Token.to_string tok)
      (Token.to_string got)

let accept st tok =
  if Lexer.peek st.lx == tok then begin
    ignore (Lexer.next st.lx);
    true
  end
  else false

let expect_id st what =
  match Lexer.peek st.lx with
  | Token.ID name ->
    ignore (Lexer.next st.lx);
    Symbol.intern name
  | tok -> err st "expected %s but found '%s'" what (Token.to_string tok)

(* the paths the parser supplies itself: list construction in patterns,
   dereference *)
let cons_path = path_of_string "::"
let deref_path = path_of_string "!"

(* A dotted path: ID (. ID)* *)
let parse_path st =
  let first = expect_id st "an identifier" in
  let rec loop acc =
    if Lexer.peek st.lx == Token.DOT then begin
      ignore (Lexer.next st.lx);
      let next = expect_id st "an identifier after '.'" in
      loop (next :: acc)
    end
    else acc
  in
  match loop [ first ] with
  | [] -> assert false
  | base :: rev_quals -> { qualifiers = List.rev rev_quals; base }

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_ty st =
  let left = parse_ty_tuple st in
  if accept st Token.ARROW then
    let right = parse_ty st in
    { ty_desc = Tarrow (left, right); ty_loc = Loc.merge left.ty_loc right.ty_loc }
  else left

and parse_ty_tuple st =
  let first = parse_ty_app st in
  if Lexer.peek st.lx == Token.STAR then begin
    let rec loop acc =
      if accept st Token.STAR then loop (parse_ty_app st :: acc)
      else List.rev acc
    in
    let parts = loop [ first ] in
    let last = List.nth parts (List.length parts - 1) in
    { ty_desc = Ttuple parts; ty_loc = Loc.merge first.ty_loc last.ty_loc }
  end
  else first

(* Postfix type application: [int list], [('a,'b) pair t]. *)
and parse_ty_app st =
  let rec post arg =
    match Lexer.peek st.lx with
    | Token.ID _ ->
      let loc = Lexer.loc st.lx in
      let path = parse_path st in
      post { ty_desc = Tcon ([ arg ], path); ty_loc = Loc.merge arg.ty_loc loc }
    | _ -> arg
  in
  post (parse_ty_atom st)

and parse_ty_atom st =
  let loc = Lexer.loc st.lx in
  match Lexer.peek st.lx with
  | Token.TYVAR name ->
    ignore (Lexer.next st.lx);
    { ty_desc = Tvar (Symbol.intern name); ty_loc = loc }
  | Token.ID _ ->
    let path = parse_path st in
    { ty_desc = Tcon ([], path); ty_loc = loc }
  | Token.LPAREN ->
    ignore (Lexer.next st.lx);
    let first = parse_ty st in
    if accept st Token.COMMA then begin
      (* parenthesised argument sequence: (ty, ty, …) longtycon *)
      let rec loop acc =
        let ty = parse_ty st in
        if accept st Token.COMMA then loop (ty :: acc) else List.rev (ty :: acc)
      in
      let args = first :: loop [] in
      expect st Token.RPAREN;
      let path_loc = Lexer.loc st.lx in
      let path = parse_path st in
      { ty_desc = Tcon (args, path); ty_loc = Loc.merge loc path_loc }
    end
    else begin
      expect st Token.RPAREN;
      first
    end
  | tok -> err st "expected a type but found '%s'" (Token.to_string tok)

let parse_tyvar_seq st =
  (* Empty, single ['a], or parenthesised [('a, 'b)]. *)
  match Lexer.peek st.lx with
  | Token.TYVAR name ->
    ignore (Lexer.next st.lx);
    [ Symbol.intern name ]
  | Token.LPAREN when (match Lexer.peek2 st.lx with Token.TYVAR _ -> true | _ -> false) ->
    ignore (Lexer.next st.lx);
    let rec loop acc =
      match Lexer.peek st.lx with
      | Token.TYVAR name ->
        ignore (Lexer.next st.lx);
        let acc = Symbol.intern name :: acc in
        if accept st Token.COMMA then loop acc else List.rev acc
      | tok -> err st "expected a type variable but found '%s'" (Token.to_string tok)
    in
    let tyvars = loop [] in
    expect st Token.RPAREN;
    tyvars
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

let rec parse_pat st =
  let pat = parse_pat_cons st in
  if accept st Token.COLON then
    let ty = parse_ty st in
    { pat_desc = Pconstraint (pat, ty); pat_loc = Loc.merge pat.pat_loc ty.ty_loc }
  else pat

(* [::] is right-associative. *)
and parse_pat_cons st =
  let left = parse_pat_app st in
  if accept st Token.CONS then
    let right = parse_pat_cons st in
    let loc = Loc.merge left.pat_loc right.pat_loc in
    {
      pat_desc =
        Pcon
          ( cons_path,
            Some { pat_desc = Ptuple [ left; right ]; pat_loc = loc } );
      pat_loc = loc;
    }
  else left

(* Constructor application: a path followed by an atomic pattern.
   Whether the head really is a constructor is decided in elaboration. *)
and parse_pat_app st =
  match Lexer.peek st.lx with
  | Token.ID _ ->
    let loc = Lexer.loc st.lx in
    let path = parse_path st in
    (* [x as pat] *)
    if path.qualifiers = [] && accept st Token.AS then
      let pat = parse_pat st in
      { pat_desc = Pas (path.base, pat); pat_loc = Loc.merge loc pat.pat_loc }
    else if starts_atomic_pat (Lexer.peek st.lx) then
      let arg = parse_pat_atom st in
      { pat_desc = Pcon (path, Some arg); pat_loc = Loc.merge loc arg.pat_loc }
    else if path.qualifiers = [] then { pat_desc = Pvar path.base; pat_loc = loc }
    else { pat_desc = Pcon (path, None); pat_loc = loc }
  | _ -> parse_pat_atom st

and starts_atomic_pat = function
  | Token.ID _ | Token.INT _ | Token.STRING _ | Token.UNDERSCORE
  | Token.LPAREN | Token.LBRACKET ->
    true
  | _ -> false

and parse_pat_atom st =
  let loc = Lexer.loc st.lx in
  match Lexer.peek st.lx with
  | Token.UNDERSCORE ->
    ignore (Lexer.next st.lx);
    { pat_desc = Pwild; pat_loc = loc }
  | Token.INT n ->
    ignore (Lexer.next st.lx);
    { pat_desc = Pint n; pat_loc = loc }
  | Token.STRING s ->
    ignore (Lexer.next st.lx);
    { pat_desc = Pstring s; pat_loc = loc }
  | Token.ID _ ->
    let path = parse_path st in
    if path.qualifiers = [] then { pat_desc = Pvar path.base; pat_loc = loc }
    else { pat_desc = Pcon (path, None); pat_loc = loc }
  | Token.LPAREN ->
    ignore (Lexer.next st.lx);
    if accept st Token.RPAREN then { pat_desc = Ptuple []; pat_loc = loc }
    else begin
      let first = parse_pat st in
      if accept st Token.COMMA then begin
        let rec loop acc =
          let pat = parse_pat st in
          if accept st Token.COMMA then loop (pat :: acc)
          else List.rev (pat :: acc)
        in
        let pats = first :: loop [] in
        expect st Token.RPAREN;
        { pat_desc = Ptuple pats; pat_loc = loc }
      end
      else begin
        expect st Token.RPAREN;
        first
      end
    end
  | Token.LBRACKET ->
    ignore (Lexer.next st.lx);
    if accept st Token.RBRACKET then { pat_desc = Plist []; pat_loc = loc }
    else begin
      let rec loop acc =
        let pat = parse_pat st in
        if accept st Token.COMMA then loop (pat :: acc) else List.rev (pat :: acc)
      in
      let pats = loop [] in
      expect st Token.RBRACKET;
      { pat_desc = Plist pats; pat_loc = loc }
    end
  | tok -> err st "expected a pattern but found '%s'" (Token.to_string tok)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

type assoc = Left | Right

(* An infix operator, with the path its applications refer to: built
   once here, not on every application. *)
type infix = { op : path; prec : int; assoc : assoc }

(* SML default fixities for the operators MiniSML supports. *)
let infix_of_token =
  let infix name prec assoc = Some { op = path_of_string name; prec; assoc } in
  let star = infix "*" 7 Left and slash = infix "/" 7 Left
  and div = infix "div" 7 Left and mod_ = infix "mod" 7 Left
  and plus = infix "+" 6 Left and minus = infix "-" 6 Left
  and caret = infix "^" 6 Left and cons = infix "::" 5 Right
  and at = infix "@" 5 Right and equal = infix "=" 4 Left
  and noteq = infix "<>" 4 Left and less = infix "<" 4 Left
  and greater = infix ">" 4 Left and lesseq = infix "<=" 4 Left
  and greatereq = infix ">=" 4 Left and assign = infix ":=" 3 Left in
  function
  | Token.STAR -> star
  | Token.SLASH -> slash
  | Token.ID "div" -> div
  | Token.ID "mod" -> mod_
  | Token.PLUS -> plus
  | Token.MINUS -> minus
  | Token.CARET -> caret
  | Token.CONS -> cons
  | Token.AT -> at
  | Token.EQUAL -> equal
  | Token.NOTEQ -> noteq
  | Token.LESS -> less
  | Token.GREATER -> greater
  | Token.LESSEQ -> lesseq
  | Token.GREATEREQ -> greatereq
  | Token.ASSIGN -> assign
  | _ -> None

let starts_atomic_exp = function
  | Token.ID _ | Token.INT _ | Token.STRING _ | Token.LPAREN | Token.LBRACKET
  | Token.LET | Token.HASH | Token.BANG | Token.OP ->
    true
  | _ -> false

let mkapp f arg =
  { exp_desc = Eapp (f, arg); exp_loc = Loc.merge f.exp_loc arg.exp_loc }

let binop op left right =
  let loc = Loc.merge left.exp_loc right.exp_loc in
  let f = { exp_desc = Evar op; exp_loc = loc } in
  mkapp f { exp_desc = Etuple [ left; right ]; exp_loc = loc }

let rec parse_exp_ st =
  let exp = parse_orelse st in
  (* Postfix: handle, type constraint; both weakest, left to right. *)
  let rec post exp =
    match Lexer.peek st.lx with
    | Token.HANDLE ->
      ignore (Lexer.next st.lx);
      let rules = parse_match st in
      post { exp_desc = Ehandle (exp, rules); exp_loc = exp.exp_loc }
    | Token.COLON ->
      ignore (Lexer.next st.lx);
      let ty = parse_ty st in
      post
        {
          exp_desc = Econstraint (exp, ty);
          exp_loc = Loc.merge exp.exp_loc ty.ty_loc;
        }
    | _ -> exp
  in
  post exp

and parse_orelse st =
  let left = parse_andalso st in
  if accept st Token.ORELSE then
    let right = parse_orelse st in
    { exp_desc = Eorelse (left, right); exp_loc = Loc.merge left.exp_loc right.exp_loc }
  else left

and parse_andalso st =
  let left = parse_infix st 1 in
  if accept st Token.ANDALSO then
    let right = parse_andalso st in
    { exp_desc = Eandalso (left, right); exp_loc = Loc.merge left.exp_loc right.exp_loc }
  else left

(* Precedence climbing over the fixity table. *)
and parse_infix st min_prec =
  let rec loop left =
    match infix_of_token (Lexer.peek st.lx) with
    | Some { op; prec; assoc } when prec >= min_prec ->
      ignore (Lexer.next st.lx);
      let next_min = match assoc with Left -> prec + 1 | Right -> prec in
      let right = parse_infix_operand st next_min in
      loop (binop op left right)
    | _ -> left
  in
  loop (parse_operand st)

and parse_infix_operand st min_prec =
  (* The right operand of an infix: either another infix chain or a
     right-extending special form. *)
  match Lexer.peek st.lx with
  | Token.IF | Token.CASE | Token.FN | Token.RAISE -> parse_special st
  | _ -> parse_infix st min_prec

(* An operand: a special form (which extends maximally right) or an
   application of atomic expressions. *)
and parse_operand st =
  match Lexer.peek st.lx with
  | Token.IF | Token.CASE | Token.FN | Token.RAISE -> parse_special st
  | _ -> parse_app st

and parse_special st =
  let loc = Lexer.loc st.lx in
  match Lexer.peek st.lx with
  | Token.IF ->
    ignore (Lexer.next st.lx);
    let cond = parse_exp_ st in
    expect st Token.THEN;
    let then_ = parse_exp_ st in
    expect st Token.ELSE;
    let else_ = parse_exp_ st in
    { exp_desc = Eif (cond, then_, else_); exp_loc = Loc.merge loc else_.exp_loc }
  | Token.CASE ->
    ignore (Lexer.next st.lx);
    let scrutinee = parse_exp_ st in
    expect st Token.OF;
    let rules = parse_match st in
    { exp_desc = Ecase (scrutinee, rules); exp_loc = loc }
  | Token.FN ->
    ignore (Lexer.next st.lx);
    let rules = parse_match st in
    { exp_desc = Efn rules; exp_loc = loc }
  | Token.RAISE ->
    ignore (Lexer.next st.lx);
    let exp = parse_exp_ st in
    { exp_desc = Eraise exp; exp_loc = Loc.merge loc exp.exp_loc }
  | tok -> err st "expected an expression but found '%s'" (Token.to_string tok)

and parse_match st =
  let rec loop acc =
    let pat = parse_pat st in
    expect st Token.DARROW;
    let exp = parse_exp_ st in
    let acc = { rule_pat = pat; rule_exp = exp } :: acc in
    if accept st Token.BAR then loop acc else List.rev acc
  in
  loop []

and parse_app st =
  let head = parse_atom st in
  let rec loop f =
    let tok = Lexer.peek st.lx in
    (* [div]/[mod] lex as identifiers but are infix: stop application *)
    if starts_atomic_exp tok && Option.is_none (infix_of_token tok) then
      loop (mkapp f (parse_atom st))
    else f
  in
  loop head

and parse_atom st =
  let loc = Lexer.loc st.lx in
  match Lexer.peek st.lx with
  | Token.INT n ->
    ignore (Lexer.next st.lx);
    { exp_desc = Eint n; exp_loc = loc }
  | Token.STRING s ->
    ignore (Lexer.next st.lx);
    { exp_desc = Estring s; exp_loc = loc }
  | Token.ID _ ->
    let path = parse_path st in
    { exp_desc = Evar path; exp_loc = loc }
  | Token.BANG ->
    (* dereference: [!e] is [! e] *)
    ignore (Lexer.next st.lx);
    let arg = parse_atom st in
    mkapp { exp_desc = Evar deref_path; exp_loc = loc } arg
  | Token.OP ->
    ignore (Lexer.next st.lx);
    let path =
      match Lexer.peek st.lx with
      | Token.ID name ->
        ignore (Lexer.next st.lx);
        path_of_string name
      | tok -> (
        match infix_of_token tok with
        | Some { op; _ } ->
          ignore (Lexer.next st.lx);
          op
        | None -> err st "expected an operator after 'op'")
    in
    { exp_desc = Evar path; exp_loc = loc }
  | Token.HASH -> (
    ignore (Lexer.next st.lx);
    match Lexer.peek st.lx with
    | Token.INT n when n >= 1 ->
      ignore (Lexer.next st.lx);
      { exp_desc = Eselect n; exp_loc = loc }
    | _ -> err st "expected a positive integer after '#'")
  | Token.LET ->
    ignore (Lexer.next st.lx);
    let decs = parse_dec_seq st in
    expect st Token.IN;
    (* SML allows [let … in e1; e2; … end]; a sequence evaluates each
       expression and returns the last. *)
    let first = parse_exp_ st in
    let rec seq acc =
      if accept st Token.SEMI then seq (parse_exp_ st :: acc) else List.rev acc
    in
    let exps = first :: seq [] in
    expect st Token.END;
    let body =
      match exps with
      | [ single ] -> single
      | several -> sequence_exps several
    in
    { exp_desc = Elet (decs, body); exp_loc = loc }
  | Token.LPAREN ->
    ignore (Lexer.next st.lx);
    if accept st Token.RPAREN then { exp_desc = Etuple []; exp_loc = loc }
    else begin
      let first = parse_exp_ st in
      match Lexer.peek st.lx with
      | Token.COMMA ->
        let rec loop acc =
          if accept st Token.COMMA then loop (parse_exp_ st :: acc)
          else List.rev acc
        in
        let exps = first :: loop [] in
        expect st Token.RPAREN;
        { exp_desc = Etuple exps; exp_loc = loc }
      | Token.SEMI ->
        (* parenthesised sequence: (e1; e2; …) *)
        let rec loop acc =
          if accept st Token.SEMI then loop (parse_exp_ st :: acc)
          else List.rev acc
        in
        let exps = first :: loop [] in
        expect st Token.RPAREN;
        sequence_exps exps
      | _ ->
        expect st Token.RPAREN;
        first
    end
  | Token.LBRACKET ->
    ignore (Lexer.next st.lx);
    if accept st Token.RBRACKET then { exp_desc = Elist []; exp_loc = loc }
    else begin
      let rec loop acc =
        let exp = parse_exp_ st in
        if accept st Token.COMMA then loop (exp :: acc) else List.rev (exp :: acc)
      in
      let exps = loop [] in
      expect st Token.RBRACKET;
      { exp_desc = Elist exps; exp_loc = loc }
    end
  | tok -> err st "expected an expression but found '%s'" (Token.to_string tok)

(* (e1; e2; …; en) evaluates left to right, discarding all but the last. *)
and sequence_exps exps =
  match exps with
  | [] -> assert false
  | [ last ] -> last
  | first :: rest ->
    let rest_exp = sequence_exps rest in
    let loc = Loc.merge first.exp_loc rest_exp.exp_loc in
    {
      exp_desc =
        Elet
          ( [ { dec_desc = Dval ({ pat_desc = Pwild; pat_loc = first.exp_loc }, first);
                dec_loc = first.exp_loc } ],
            rest_exp );
      exp_loc = loc;
    }

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

and parse_dec_seq st =
  let rec loop acc =
    if accept st Token.SEMI then loop acc
    else if starts_dec (Lexer.peek st.lx) then begin
      match parse_dec st with
      | dec -> loop (dec :: acc)
      | exception Diag.Error d when st.diags <> None -> (
        match st.diags with
        | None -> assert false
        | Some c ->
          Diag.emit c d;
          sync_to_dec st;
          loop acc)
    end
    else List.rev acc
  in
  loop []

and parse_dec st =
  let loc = Lexer.loc st.lx in
  let desc =
    match Lexer.peek st.lx with
    | Token.VAL ->
      ignore (Lexer.next st.lx);
      if accept st Token.REC then Dvalrec (parse_valrec_binds st)
      else begin
        let pat = parse_pat st in
        expect st Token.EQUAL;
        let exp = parse_exp_ st in
        Dval (pat, exp)
      end
    | Token.FUN ->
      ignore (Lexer.next st.lx);
      Dfun (parse_funbinds st)
    | Token.TYPE ->
      ignore (Lexer.next st.lx);
      Dtype (parse_typebinds st)
    | Token.DATATYPE ->
      ignore (Lexer.next st.lx);
      Ddatatype (parse_datbinds st)
    | Token.EXCEPTION ->
      ignore (Lexer.next st.lx);
      Dexception (parse_exnbinds st)
    | Token.STRUCTURE ->
      ignore (Lexer.next st.lx);
      Dstructure (parse_strbinds st)
    | Token.SIGNATURE ->
      ignore (Lexer.next st.lx);
      Dsignature (parse_sigbinds st)
    | Token.FUNCTOR ->
      ignore (Lexer.next st.lx);
      Dfunctor (parse_funbindings st)
    | Token.LOCAL ->
      ignore (Lexer.next st.lx);
      let hidden = parse_dec_seq st in
      expect st Token.IN;
      let visible = parse_dec_seq st in
      expect st Token.END;
      Dlocal (hidden, visible)
    | Token.OPEN ->
      ignore (Lexer.next st.lx);
      let rec loop acc =
        match Lexer.peek st.lx with
        | Token.ID _ -> loop (parse_path st :: acc)
        | _ -> List.rev acc
      in
      let paths = loop [] in
      if paths = [] then err st "expected a structure path after 'open'"
      else Dopen paths
    | tok -> err st "expected a declaration but found '%s'" (Token.to_string tok)
  in
  { dec_desc = desc; dec_loc = loc }

and parse_valrec_binds st =
  let rec loop acc =
    let name = expect_id st "a function name" in
    expect st Token.EQUAL;
    expect st Token.FN;
    let rules = parse_match st in
    let acc = (name, rules) :: acc in
    if accept st Token.AND then begin
      (* allow [and rec] noise to be absent; SML writes plain [and] *)
      ignore (accept st Token.REC);
      loop acc
    end
    else List.rev acc
  in
  loop []

and parse_funbinds st =
  let rec bind_loop acc =
    let loc = Lexer.loc st.lx in
    let rec clause_loop clauses =
      let name = expect_id st "a function name" in
      let rec pats acc =
        if starts_atomic_pat (Lexer.peek st.lx) then
          pats (parse_pat_atom st :: acc)
        else List.rev acc
      in
      let pats = pats [] in
      if pats = [] then err st "function clause needs at least one argument";
      (* optional result type constraint on the clause *)
      let result_ty =
        if accept st Token.COLON then Some (parse_ty st) else None
      in
      expect st Token.EQUAL;
      let body = parse_exp_ st in
      let body =
        match result_ty with
        | None -> body
        | Some ty ->
          { exp_desc = Econstraint (body, ty); exp_loc = body.exp_loc }
      in
      let clauses = { fc_name = name; fc_pats = pats; fc_body = body } :: clauses in
      if accept st Token.BAR then clause_loop clauses else List.rev clauses
    in
    let clauses = clause_loop [] in
    let acc = { fb_clauses = clauses; fb_loc = loc } :: acc in
    if accept st Token.AND then bind_loop acc else List.rev acc
  in
  bind_loop []

and parse_typebinds st =
  let rec loop acc =
    let tyvars = parse_tyvar_seq st in
    let name = expect_id st "a type name" in
    expect st Token.EQUAL;
    let defn = parse_ty st in
    let acc = { typ_tyvars = tyvars; typ_name = name; typ_defn = defn } :: acc in
    if accept st Token.AND then loop acc else List.rev acc
  in
  loop []

and parse_datbinds st =
  let rec loop acc =
    let tyvars = parse_tyvar_seq st in
    let name = expect_id st "a datatype name" in
    expect st Token.EQUAL;
    let rec cons acc =
      let con_name = expect_id st "a constructor name" in
      let con_arg = if accept st Token.OF then Some (parse_ty st) else None in
      let acc = { con_name; con_arg } :: acc in
      if accept st Token.BAR then cons acc else List.rev acc
    in
    let cons = cons [] in
    let acc = { dat_tyvars = tyvars; dat_name = name; dat_cons = cons } :: acc in
    if accept st Token.AND then loop acc else List.rev acc
  in
  loop []

and parse_exnbinds st =
  let rec loop acc =
    let name = expect_id st "an exception name" in
    let arg = if accept st Token.OF then Some (parse_ty st) else None in
    let acc = (name, arg) :: acc in
    if accept st Token.AND then loop acc else List.rev acc
  in
  loop []

and parse_strbinds st =
  let rec loop acc =
    let name = expect_id st "a structure name" in
    let ascription = parse_opt_ascription st in
    expect st Token.EQUAL;
    let body = parse_strexp st in
    let acc = (name, ascription, body) :: acc in
    if accept st Token.AND then loop acc else List.rev acc
  in
  loop []

and parse_opt_ascription st =
  if accept st Token.COLON then Some (Transparent (parse_sigexp st))
  else if accept st Token.COLONGT then Some (Opaque (parse_sigexp st))
  else None

and parse_sigbinds st =
  let rec loop acc =
    let name = expect_id st "a signature name" in
    expect st Token.EQUAL;
    let body = parse_sigexp st in
    let acc = (name, body) :: acc in
    if accept st Token.AND then loop acc else List.rev acc
  in
  loop []

and parse_funbindings st =
  let rec loop acc =
    let fct_name = expect_id st "a functor name" in
    expect st Token.LPAREN;
    let fct_param = expect_id st "a functor parameter name" in
    expect st Token.COLON;
    let fct_param_sig = parse_sigexp st in
    expect st Token.RPAREN;
    let fct_ascription = parse_opt_ascription st in
    expect st Token.EQUAL;
    let fct_body = parse_strexp st in
    let acc =
      { fct_name; fct_param; fct_param_sig; fct_ascription; fct_body } :: acc
    in
    if accept st Token.AND then loop acc else List.rev acc
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Structure and signature expressions                                 *)
(* ------------------------------------------------------------------ *)

and parse_strexp st =
  let base = parse_strexp_base st in
  let rec post str =
    if accept st Token.COLON then
      post { str_desc = Sascribe (str, Transparent (parse_sigexp st)); str_loc = str.str_loc }
    else if accept st Token.COLONGT then
      post { str_desc = Sascribe (str, Opaque (parse_sigexp st)); str_loc = str.str_loc }
    else str
  in
  post base

and parse_strexp_base st =
  let loc = Lexer.loc st.lx in
  match Lexer.peek st.lx with
  | Token.STRUCT ->
    ignore (Lexer.next st.lx);
    let decs = parse_dec_seq st in
    expect st Token.END;
    { str_desc = Sstruct decs; str_loc = loc }
  | Token.LET ->
    ignore (Lexer.next st.lx);
    let decs = parse_dec_seq st in
    expect st Token.IN;
    let body = parse_strexp st in
    expect st Token.END;
    { str_desc = Slet (decs, body); str_loc = loc }
  | Token.ID _ ->
    let path = parse_path st in
    if Lexer.peek st.lx == Token.LPAREN then begin
      ignore (Lexer.next st.lx);
      let arg = parse_strexp st in
      expect st Token.RPAREN;
      { str_desc = Sapp (path, arg); str_loc = loc }
    end
    else { str_desc = Svar path; str_loc = loc }
  | tok ->
    err st "expected a structure expression but found '%s'" (Token.to_string tok)

and parse_sigexp st =
  let base = parse_sigexp_base st in
  (* repeated [where type tyvars longtycon = ty] refinements *)
  let rec post sigexp =
    if Lexer.peek st.lx == Token.WHERE then begin
      ignore (Lexer.next st.lx);
      expect st Token.TYPE;
      let rec specs acc =
        let ws_tyvars = parse_tyvar_seq st in
        let ws_path = parse_path st in
        expect st Token.EQUAL;
        let ws_defn = parse_ty st in
        let acc = { ws_tyvars; ws_path; ws_defn } :: acc in
        (* [where type … and type …] chains *)
        if Lexer.peek st.lx == Token.AND && Lexer.peek2 st.lx == Token.TYPE then begin
          ignore (Lexer.next st.lx);
          ignore (Lexer.next st.lx);
          specs acc
        end
        else List.rev acc
      in
      let ws = specs [] in
      post { sig_desc = Gwhere (sigexp, ws); sig_loc = sigexp.sig_loc }
    end
    else sigexp
  in
  post base

and parse_sigexp_base st =
  let loc = Lexer.loc st.lx in
  match Lexer.peek st.lx with
  | Token.SIG ->
    ignore (Lexer.next st.lx);
    let rec specs acc =
      if accept st Token.SEMI then specs acc
      else
        match Lexer.peek st.lx with
        | Token.VAL | Token.TYPE | Token.DATATYPE | Token.EXCEPTION
        | Token.STRUCTURE | Token.INCLUDE ->
          specs (parse_spec st :: acc)
        | _ -> List.rev acc
    in
    let specs = specs [] in
    expect st Token.END;
    { sig_desc = Gsig specs; sig_loc = loc }
  | Token.ID name ->
    ignore (Lexer.next st.lx);
    { sig_desc = Gvar (Symbol.intern name); sig_loc = loc }
  | tok ->
    err st "expected a signature expression but found '%s'" (Token.to_string tok)

and parse_spec st =
  let loc = Lexer.loc st.lx in
  let desc =
    match Lexer.peek st.lx with
    | Token.VAL ->
      ignore (Lexer.next st.lx);
      let name = expect_id st "a value name" in
      expect st Token.COLON;
      let ty = parse_ty st in
      SPval (name, ty)
    | Token.TYPE ->
      ignore (Lexer.next st.lx);
      let tyvars = parse_tyvar_seq st in
      let name = expect_id st "a type name" in
      let defn = if accept st Token.EQUAL then Some (parse_ty st) else None in
      SPtype (tyvars, name, defn)
    | Token.DATATYPE ->
      ignore (Lexer.next st.lx);
      SPdatatype (parse_datbinds st)
    | Token.EXCEPTION ->
      ignore (Lexer.next st.lx);
      let name = expect_id st "an exception name" in
      let arg = if accept st Token.OF then Some (parse_ty st) else None in
      SPexception (name, arg)
    | Token.STRUCTURE ->
      ignore (Lexer.next st.lx);
      let name = expect_id st "a structure name" in
      expect st Token.COLON;
      let sigexp = parse_sigexp st in
      SPstructure (name, sigexp)
    | Token.INCLUDE ->
      ignore (Lexer.next st.lx);
      SPinclude (parse_sigexp st)
    | tok -> err st "expected a specification but found '%s'" (Token.to_string tok)
  in
  { spec_desc = desc; spec_loc = loc }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let parse_unit ?diags ~file source =
  let st = { lx = Lexer.make ?diags ~file source; diags } in
  (* in recovery mode a stray top-level token (e.g. an unmatched 'end')
     is reported once, skipped to the next declaration, and parsing
     resumes; fail-fast mode raises as before *)
  let rec toplevel acc =
    let acc = acc @ parse_dec_seq st in
    match (Lexer.peek st.lx, diags) with
    | Token.EOF, _ -> acc
    | tok, None ->
      err st "expected a declaration but found '%s'" (Token.to_string tok)
    | tok, Some c ->
      Diag.error_into c Diag.Parse (Lexer.loc st.lx)
        "expected a declaration but found '%s'" (Token.to_string tok);
      ignore (Lexer.next st.lx);
      sync_to_dec st;
      (* sync stops at IN/END for the sake of nested recovery; at top
         level those are just more stray tokens *)
      (match Lexer.peek st.lx with
      | Token.IN | Token.END -> ignore (Lexer.next st.lx)
      | _ -> ());
      toplevel acc
  in
  { unit_file = file; unit_decs = toplevel [] }

let parse_exp ~file source =
  let st = { lx = Lexer.make ~file source; diags = None } in
  let exp = parse_exp_ st in
  (match Lexer.peek st.lx with
  | Token.EOF -> ()
  | tok -> err st "trailing input: '%s'" (Token.to_string tok));
  exp

let parse_decs ?diags ~file source =
  let st = { lx = Lexer.make ?diags ~file source; diags } in
  let decs = parse_dec_seq st in
  (match Lexer.peek st.lx with
  | Token.EOF -> ()
  | tok ->
    (match diags with
    | None -> err st "expected a declaration but found '%s'" (Token.to_string tok)
    | Some c ->
      Diag.error_into c Diag.Parse (Lexer.loc st.lx)
        "expected a declaration but found '%s'" (Token.to_string tok)));
  decs
