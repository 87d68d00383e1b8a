module P = Statics.Prim
module Symbol = Support.Symbol
open Lambda

(* ------------------------------------------------------------------ *)
(* Syntactic analyses                                                  *)
(* ------------------------------------------------------------------ *)

let is_atom = function
  | Lvar _ | Lint _ | Lstring _ | Lprim _ | Lbasisexn _ | Lcon0 _ | Limport _ ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let bool_term b = Lcon0 (if b then 1 else 0)

let fold_prim prim args =
  match (prim, args) with
  | P.Padd, Ltuple [ Lint a; Lint b ] -> Some (Lint (a + b))
  | P.Psub, Ltuple [ Lint a; Lint b ] -> Some (Lint (a - b))
  | P.Pmul, Ltuple [ Lint a; Lint b ] -> Some (Lint (a * b))
  | P.Pdiv, Ltuple [ Lint a; Lint b ] when b <> 0 -> Some (Lint (P.int_div a b))
  | P.Pmod, Ltuple [ Lint a; Lint b ] when b <> 0 -> Some (Lint (P.int_mod a b))
  | P.Pneg, Lint a -> Some (Lint (-a))
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
(* The census                                                          *)
(* ------------------------------------------------------------------ *)

(* What an eliminated binder stands for while its scope is shrunk.  An
   atom may be copied to every occurrence; a [Moved] term (already
   shrunk) and a [Deferred] function (not yet shrunk) have exactly one
   occurrence and are spliced in, or deleted, where it turns up. *)
type binding = Atom of Lambda.t | Moved of Lambda.t | Deferred of Lambda.t

type state = {
  counts : int ref Symbol.Table.t;
      (** occurrences of each variable in the current term: the shrunk
          part, plus the unshrunk part with pending substitutions applied *)
  subst : binding Symbol.Table.t;
  mutable visits : int;
  mutable missed : bool;
      (** a rewrite became possible in code already shrunk this pass *)
}

let count st v =
  match Symbol.Table.find_opt st.counts v with Some r -> !r | None -> 0

let bump st v d =
  match Symbol.Table.find_opt st.counts v with
  | Some r -> r := !r + d
  | None -> Symbol.Table.add st.counts v (ref d)

let visit st = st.visits <- st.visits + 1

let rec census st term =
  visit st;
  match term with
  | Lvar v -> bump st v 1
  | _ -> Lambda.fold_subterms (fun () sub -> census st sub) () term

(* Take [term] out of the program: every occurrence it holds, including
   those of a single-use term still waiting to be spliced in, leaves
   the census. *)
let rec delete st term =
  visit st;
  match term with
  | Lvar v -> (
    match Symbol.Table.find_opt st.subst v with
    | None -> bump st v (-1)
    | Some (Atom (Lvar y)) -> bump st y (-1)
    | Some (Atom _) -> ()
    | Some (Moved e | Deferred e) ->
      Symbol.Table.remove st.subst v;
      delete st e)
  | _ -> Lambda.fold_subterms (fun () sub -> delete st sub) () term

(* Pure terms can be dropped or duplicated (well-typed programs only:
   projections cannot fail at run time).  A pending variable is pure:
   only atoms and pure terms are ever substituted. *)
let rec is_pure st term =
  visit st;
  match term with
  | Lvar _ | Lint _ | Lstring _ | Limport _ | Lprim _ | Lbasisexn _ | Lfn _
  | Lcon0 _ ->
    true
  | Ltuple parts -> List.for_all (is_pure st) parts
  | Lrecord fields -> List.for_all (fun (_, v) -> is_pure st v) fields
  | Lcon (_, e) | Lselect (_, e) | Lfield (_, e) | Lcontag e | Lconarg e
  | Lmkexn0 e | Lexnid e | Lexnarg e ->
    is_pure st e
  | Llet (_, e, body) -> is_pure st e && is_pure st body
  | Lif (c, t, e) -> is_pure st c && is_pure st t && is_pure st e
  | Lfix (_, body) -> is_pure st body
  | Lapp _ | Lraise _ | Lhandle _ | Lnewexn _ -> false

(* ------------------------------------------------------------------ *)
(* One shrinking walk                                                  *)
(* ------------------------------------------------------------------ *)

(* The function an application's head denotes without shrinking it: a
   literal [fn], or a variable whose single-use [fn] binding waits in
   the substitution.  Its body is shrunk once, as the beta-redex's. *)
let redex_head st f =
  match f with
  | Lfn (x, body) ->
    visit st;
    Some (x, body)
  | Lvar v -> (
    match Symbol.Table.find_opt st.subst v with
    | Some (Deferred (Lfn (x, body))) ->
      visit st;
      Symbol.Table.remove st.subst v;
      Some (x, body)
    | Some _ | None -> None)
  | _ -> None

(* Each node of the input is shrunk at most once: a binding is decided
   from the census before its scope is walked, and an inlined term is
   spliced in (or deleted) where its occurrence turns up, never walked
   again. *)
let rec shrink st term =
  visit st;
  match term with
  | Lvar v -> (
    match Symbol.Table.find_opt st.subst v with
    | None -> term
    | Some (Atom a) -> a
    | Some (Moved e) ->
      Symbol.Table.remove st.subst v;
      e
    | Some (Deferred e) ->
      Symbol.Table.remove st.subst v;
      shrink st e)
  | Lint _ | Lstring _ | Limport _ | Lprim _ | Lbasisexn _ | Lcon0 _
  | Lnewexn _ ->
    term
  | Lfn (x, body) -> Lfn (x, shrink st body)
  | Lapp (f, a) -> (
    match redex_head st f with
    | Some (x, body) -> bind st x a body
    | None -> (
      let f = shrink st f in
      let a = shrink st a in
      match f with
      | Lprim p -> (
        match fold_prim p a with Some folded -> folded | None -> Lapp (f, a))
      | Lfn _ ->
        (* the head became a [fn] only now; its body is already shrunk *)
        st.missed <- true;
        Lapp (f, a)
      | _ -> Lapp (f, a)))
  | Llet (x, e, body) -> bind st x e body
  | Lfix (binds, body) -> (
    let binds = prune st binds in
    let binds = List.map (fun (f, x, b) -> (f, x, shrink st b)) binds in
    let body = shrink st body in
    match prune st binds with [] -> body | live -> Lfix (live, body))
  | Ltuple parts -> Ltuple (List.map (shrink st) parts)
  | Lselect (i, e) -> (
    match shrink st e with
    | Ltuple parts
      when i < List.length parts && List.for_all (is_pure st) parts ->
      List.iteri (fun j part -> if j <> i then delete st part) parts;
      List.nth parts i
    | e -> Lselect (i, e))
  | Lrecord fields -> Lrecord (List.map (fun (n, e) -> (n, shrink st e)) fields)
  | Lfield (n, e) -> (
    match shrink st e with
    | Lrecord fields
      when List.mem_assoc n fields
           && List.for_all (fun (_, v) -> is_pure st v) fields ->
      (* the first field of that name is the one selected *)
      let rec pick = function
        | [] -> assert false
        | (n', v) :: rest when Symbol.equal n n' ->
          List.iter (fun (_, v) -> delete st v) rest;
          v
        | (_, v) :: rest ->
          delete st v;
          pick rest
      in
      pick fields
    | e -> Lfield (n, e))
  | Lcon (tag, e) -> Lcon (tag, shrink st e)
  | Lcontag e -> (
    match shrink st e with
    | Lcon0 tag -> Lint tag
    | Lcon (tag, arg) when is_pure st arg ->
      delete st arg;
      Lint tag
    | e -> Lcontag e)
  | Lconarg e -> (
    match shrink st e with Lcon (_, arg) -> arg | e -> Lconarg e)
  | Lmkexn0 e -> Lmkexn0 (shrink st e)
  | Lexnid e -> Lexnid (shrink st e)
  | Lexnarg e -> Lexnarg (shrink st e)
  | Lif (c, t, e) -> (
    match shrink st c with
    | Lcon0 1 ->
      delete st e;
      shrink st t
    | Lcon0 0 ->
      delete st t;
      shrink st e
    | c ->
      let t = shrink st t in
      let e = shrink st e in
      Lif (c, t, e))
  | Lraise e -> Lraise (shrink st e)
  | Lhandle (e, x, h) ->
    let e = shrink st e in
    if is_pure st e then begin
      delete st h;
      e
    end
    else Lhandle (e, x, shrink st h)

(* [let x = e in body], also the form every beta-redex takes.  Binders
   are globally unique, so [x] occurs only in [body] and its count is
   exact before [body] is walked. *)
and bind st x e body =
  let uses = count st x in
  if uses = 0 && is_pure st e then begin
    delete st e;
    shrink st body
  end
  else
    match e with
    | Lfn _ when uses = 1 ->
      (* shrunk where it is used, as a beta-redex if it is applied *)
      Symbol.Table.replace st.subst x (Deferred e);
      shrink st body
    | _ -> (
      let e = shrink st e in
      if is_atom e then begin
        (* each occurrence of [x] becomes one of [e]; [e]'s own goes *)
        (match e with Lvar y -> bump st y (uses - 1) | _ -> ());
        Symbol.Table.replace st.subst x (Atom e);
        shrink st body
      end
      else if uses = 1 && is_pure st e then begin
        (* single pure use: inline even non-atomic terms *)
        Symbol.Table.replace st.subst x (Moved e);
        shrink st body
      end
      else
        let body = shrink st body in
        match count st x with
        | 0 when is_pure st e ->
          delete st e;
          body
        | 1 when is_pure st e ->
          (* uses fell to one while [body] shrank *)
          st.missed <- true;
          Llet (x, e, body)
        | _ -> Llet (x, e, body))

(* drop the functions of a [fix] nothing refers to, to a fixpoint: a
   dropped body can hold the last reference to a sibling *)
and prune st binds =
  match List.partition (fun (f, _, _) -> count st f = 0) binds with
  | [], _ -> binds
  | dead, live ->
    List.iter (fun (_, _, b) -> delete st b) dead;
    prune st live

(* ------------------------------------------------------------------ *)
(* The fixpoint                                                        *)
(* ------------------------------------------------------------------ *)

type stats = { before_nodes : int; after_nodes : int; passes : int }

(* a pass that misses a rewrite strictly shrinks the term, so this
   bound is never reached in practice *)
let max_passes = 4

let m_passes = Obs.Metrics.counter "simplify.passes"
let m_rewrites = Obs.Metrics.counter "simplify.rewrites"
let m_visits = Obs.Metrics.counter "simplify.visits"

(* Each domain reuses its tables from unit to unit: cleared, they keep
   their bucket arrays, so a compile job allocates none of the size of
   its unit. *)
let scratch =
  Domain.DLS.new_key (fun () ->
      {
        counts = Symbol.Table.create 256;
        subst = Symbol.Table.create 64;
        visits = 0;
        missed = false;
      })

let term_with_stats t =
  let st = Domain.DLS.get scratch in
  st.visits <- 0;
  let rec go passes t =
    Symbol.Table.clear st.counts;
    Symbol.Table.clear st.subst;
    st.missed <- false;
    census st t;
    let t = shrink st t in
    if st.missed && passes + 1 < max_passes then go (passes + 1) t
    else (t, passes + 1)
  in
  let before_nodes = Lambda.size t in
  let t', passes = go 0 t in
  let after_nodes = Lambda.size t' in
  Obs.Metrics.add m_passes passes;
  Obs.Metrics.add m_rewrites (before_nodes - after_nodes);
  Obs.Metrics.add m_visits st.visits;
  (t', { before_nodes; after_nodes; passes })

let term t = fst (term_with_stats t)
