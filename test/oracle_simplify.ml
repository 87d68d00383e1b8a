(* The bounded-pass simplifier, kept as a differential oracle for the
   census-based shrinker ({!Simplify}).  Each pass rewrites bottom-up and
   re-walks every substituted body, counting a binder's uses with a
   fresh walk of its scope; passes repeat until the size stops changing.
   Quadratic, but a direct reading of the rewrite set.  Only its metrics
   are gone, so running the oracle leaves the library's counters alone. *)

module P = Statics.Prim
open Lambda

(* ------------------------------------------------------------------ *)
(* Syntactic analyses                                                  *)
(* ------------------------------------------------------------------ *)

let is_atom = function
  | Lvar _ | Lint _ | Lstring _ | Lprim _ | Lbasisexn _ | Lcon0 _ | Limport _ ->
    true
  | _ -> false

(* Pure terms can be dropped or duplicated (well-typed programs only:
   projections cannot fail at run time). *)
let rec is_pure = function
  | Lvar _ | Lint _ | Lstring _ | Limport _ | Lprim _ | Lbasisexn _ | Lfn _
  | Lcon0 _ ->
    true
  | Ltuple parts -> List.for_all is_pure parts
  | Lrecord fields -> List.for_all (fun (_, v) -> is_pure v) fields
  | Lcon (_, e) | Lselect (_, e) | Lfield (_, e) | Lcontag e | Lconarg e
  | Lmkexn0 e | Lexnid e | Lexnarg e ->
    is_pure e
  | Llet (_, e, body) -> is_pure e && is_pure body
  | Lif (c, t, e) -> is_pure c && is_pure t && is_pure e
  | Lfix (_, body) -> is_pure body
  | Lapp _ | Lraise _ | Lhandle _ | Lnewexn _ -> false

let rec count_var v term =
  match term with
  | Lvar v' -> if Support.Symbol.equal v v' then 1 else 0
  | _ ->
    Lambda.fold_subterms (fun acc sub -> acc + count_var v sub) 0 term

(* all binders are globally unique, so no capture is possible *)
let rec subst v replacement term =
  match term with
  | Lvar v' when Support.Symbol.equal v v' -> replacement
  | Lvar _ | Lint _ | Lstring _ | Limport _ | Lprim _ | Lbasisexn _ | Lcon0 _
  | Lnewexn _ ->
    term
  | Lfn (x, body) -> Lfn (x, subst v replacement body)
  | Lapp (f, a) -> Lapp (subst v replacement f, subst v replacement a)
  | Llet (x, e, body) -> Llet (x, subst v replacement e, subst v replacement body)
  | Lfix (binds, body) ->
    Lfix
      ( List.map (fun (f, x, b) -> (f, x, subst v replacement b)) binds,
        subst v replacement body )
  | Ltuple parts -> Ltuple (List.map (subst v replacement) parts)
  | Lselect (i, e) -> Lselect (i, subst v replacement e)
  | Lrecord fields ->
    Lrecord (List.map (fun (n, e) -> (n, subst v replacement e)) fields)
  | Lfield (n, e) -> Lfield (n, subst v replacement e)
  | Lcon (tag, e) -> Lcon (tag, subst v replacement e)
  | Lcontag e -> Lcontag (subst v replacement e)
  | Lconarg e -> Lconarg (subst v replacement e)
  | Lmkexn0 e -> Lmkexn0 (subst v replacement e)
  | Lexnid e -> Lexnid (subst v replacement e)
  | Lexnarg e -> Lexnarg (subst v replacement e)
  | Lif (c, t, e) ->
    Lif (subst v replacement c, subst v replacement t, subst v replacement e)
  | Lraise e -> Lraise (subst v replacement e)
  | Lhandle (e, x, h) -> Lhandle (subst v replacement e, x, subst v replacement h)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let bool_term b = Lcon0 (if b then 1 else 0)

(* SML's int arithmetic, exactly: [None] where the result lies outside
   [min_int, max_int] and SML raises Overflow.  Each bound is compared
   before the operation, so nothing here wraps. *)
let exact_add a b =
  if (b > 0 && a > max_int - b) || (b < 0 && a < min_int - b) then None
  else Some (a + b)

let exact_sub a b =
  if (b < 0 && a > max_int + b) || (b > 0 && a < min_int + b) then None
  else Some (a - b)

let exact_mul a b =
  let over =
    if a > 0 && b > 0 then a > max_int / b
    else if a < 0 && b < 0 then a < max_int / b
    else if a > 0 && b < 0 then b < min_int / a
    else if a < 0 && b > 0 then a < min_int / b
    else false
  in
  if over then None else Some (a * b)

let exact_neg a = if a = min_int then None else Some (-a)

let fold_prim prim args =
  let int = Option.map (fun n -> Lint n) in
  match (prim, args) with
  | P.Padd, Ltuple [ Lint a; Lint b ] -> int (exact_add a b)
  | P.Psub, Ltuple [ Lint a; Lint b ] -> int (exact_sub a b)
  | P.Pmul, Ltuple [ Lint a; Lint b ] -> int (exact_mul a b)
  | P.Pdiv, Ltuple [ Lint a; Lint b ] when b <> 0 ->
    if a = min_int && b = -1 then None else Some (Lint (P.int_div a b))
  | P.Pmod, Ltuple [ Lint a; Lint b ] when b <> 0 -> Some (Lint (P.int_mod a b))
  | P.Pneg, Lint a -> int (exact_neg a)
  | P.Plt, Ltuple [ Lint a; Lint b ] -> Some (bool_term (a < b))
  | P.Ple, Ltuple [ Lint a; Lint b ] -> Some (bool_term (a <= b))
  | P.Pgt, Ltuple [ Lint a; Lint b ] -> Some (bool_term (a > b))
  | P.Pge, Ltuple [ Lint a; Lint b ] -> Some (bool_term (a >= b))
  | P.Peq, Ltuple [ Lint a; Lint b ] -> Some (bool_term (a = b))
  | P.Pneq, Ltuple [ Lint a; Lint b ] -> Some (bool_term (a <> b))
  | P.Peq, Ltuple [ Lstring a; Lstring b ] -> Some (bool_term (String.equal a b))
  | P.Pneq, Ltuple [ Lstring a; Lstring b ] ->
    Some (bool_term (not (String.equal a b)))
  | P.Peq, Ltuple [ Lcon0 a; Lcon0 b ] -> Some (bool_term (a = b))
  | P.Pconcat, Ltuple [ Lstring a; Lstring b ] -> Some (Lstring (a ^ b))
  | P.Psize, Lstring s -> Some (Lint (String.length s))
  | P.Pnot, Lcon0 b -> Some (bool_term (b = 0))
  | P.Pint_to_string, Lint n -> Some (Lstring (Support.Int_text.to_string n))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* One bottom-up pass                                                  *)
(* ------------------------------------------------------------------ *)

let rec pass term =
  match term with
  | Lvar _ | Lint _ | Lstring _ | Limport _ | Lprim _ | Lbasisexn _ | Lcon0 _
  | Lnewexn _ ->
    term
  | Lfn (x, body) -> Lfn (x, pass body)
  | Lapp (f, a) -> (
    let f = pass f and a = pass a in
    match (f, a) with
    | Lprim p, _ -> (
      match fold_prim p a with Some folded -> folded | None -> Lapp (f, a))
    | Lfn (x, body), _ -> pass (Llet (x, a, body))
    | _ -> Lapp (f, a))
  | Llet (x, e, body) -> (
    let e = pass e and body = pass body in
    if is_atom e then pass_subst x e body
    else
      match count_var x body with
      | 0 when is_pure e -> body
      | 1 when is_pure e ->
        (* single pure use: inline even non-atomic terms *)
        pass_subst x e body
      | _ -> Llet (x, e, body))
  | Lfix (binds, body) ->
    let binds = List.map (fun (f, x, b) -> (f, x, pass b)) binds in
    let body = pass body in
    let used (f, _, _) =
      count_var f body > 0
      || List.exists (fun (_, _, b) -> count_var f b > 0) binds
    in
    let live = List.filter used binds in
    if live = [] then body else Lfix (live, body)
  | Ltuple parts -> Ltuple (List.map pass parts)
  | Lselect (i, e) -> (
    match pass e with
    | Ltuple parts
      when i < List.length parts && List.for_all is_pure parts ->
      List.nth parts i
    | e -> Lselect (i, e))
  | Lrecord fields -> Lrecord (List.map (fun (n, e) -> (n, pass e)) fields)
  | Lfield (n, e) -> (
    match pass e with
    | Lrecord fields
      when List.mem_assoc n fields
           && List.for_all (fun (_, v) -> is_pure v) fields ->
      List.assoc n fields
    | e -> Lfield (n, e))
  | Lcon (tag, e) -> Lcon (tag, pass e)
  | Lcontag e -> (
    match pass e with
    | Lcon0 tag -> Lint tag
    | Lcon (tag, arg) when is_pure arg -> Lint tag
    | e -> Lcontag e)
  | Lconarg e -> (
    match pass e with Lcon (_, arg) -> arg | e -> Lconarg e)
  | Lmkexn0 e -> Lmkexn0 (pass e)
  | Lexnid e -> Lexnid (pass e)
  | Lexnarg e -> Lexnarg (pass e)
  | Lif (c, t, e) -> (
    let c = pass c in
    match c with
    | Lcon0 1 -> pass t
    | Lcon0 0 -> pass e
    | _ -> Lif (c, pass t, pass e))
  | Lraise e -> Lraise (pass e)
  | Lhandle (e, x, h) ->
    let e = pass e in
    if is_pure e then e else Lhandle (e, x, pass h)

and pass_subst x replacement body = pass (subst x replacement body)

type stats = { before_nodes : int; after_nodes : int; passes : int }

let max_passes = 4

let term_with_stats t =
  let before_nodes = size t in
  let rec go n t =
    if n >= max_passes then (t, n)
    else
      let t' = pass t in
      if size t' = size t then (t', n + 1) else go (n + 1) t'
  in
  let t', passes = go 0 t in
  (t', { before_nodes; after_nodes = size t'; passes })

let term t = fst (term_with_stats t)
