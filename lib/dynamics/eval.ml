module Symbol = Support.Symbol
module Diag = Support.Diag
module Pid = Digestkit.Pid
module P = Statics.Prim
open Value

exception Sml_raise of Value.t
exception Sml_exit of int

type runtime = {
  imports : Value.t Pid.Map.t;
  output : string -> unit;
}

let exn_uid_counter = ref 0

let fresh_exnid exn_name has_arg =
  incr exn_uid_counter;
  { uid = !exn_uid_counter; exn_name; has_arg }

let basis_exnids : (string * exnid) list =
  List.map
    (fun (name, _stamp, arg) ->
      (name, fresh_exnid (Symbol.intern name) (arg <> None)))
    Statics.Basis.exn_stamps

let basis_exnid name =
  match List.assoc_opt (Symbol.name name) basis_exnids with
  | Some id -> id
  | None ->
    Diag.error Diag.Execute Support.Loc.dummy "unknown predefined exception %a"
      Symbol.pp name

let runtime ?(output = print_string) ~imports () = { imports; output }

let exec_error fmt = Diag.error Diag.Execute Support.Loc.dummy fmt

let raise_basis name arg =
  raise (Sml_raise (Vexn (basis_exnid (Symbol.intern name), arg)))

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let int_pair = function
  | Vtuple [| Vint a; Vint b |] -> (a, b)
  | v -> exec_error "primitive expected an int pair, got %s" (Value.to_string v)

let apply_prim rt prim arg =
  match prim with
  | P.Padd ->
    let a, b = int_pair arg in
    Vint (a + b)
  | P.Psub ->
    let a, b = int_pair arg in
    Vint (a - b)
  | P.Pmul ->
    let a, b = int_pair arg in
    Vint (a * b)
  | P.Pdiv ->
    let a, b = int_pair arg in
    if b = 0 then raise_basis "Div" None else Vint (P.int_div a b)
  | P.Pmod ->
    let a, b = int_pair arg in
    if b = 0 then raise_basis "Div" None else Vint (P.int_mod a b)
  | P.Pneg -> (
    match arg with
    | Vint n -> Vint (-n)
    | v -> exec_error "~ expected an int, got %s" (Value.to_string v))
  | P.Plt ->
    let a, b = int_pair arg in
    bool_value (a < b)
  | P.Ple ->
    let a, b = int_pair arg in
    bool_value (a <= b)
  | P.Pgt ->
    let a, b = int_pair arg in
    bool_value (a > b)
  | P.Pge ->
    let a, b = int_pair arg in
    bool_value (a >= b)
  | P.Peq -> (
    match arg with
    | Vtuple [| a; b |] -> (
      match Value.equal a b with
      | eq -> bool_value eq
      | exception Invalid_argument _ -> exec_error "equality on functions")
    | v -> exec_error "= expected a pair, got %s" (Value.to_string v))
  | P.Pneq -> (
    match arg with
    | Vtuple [| a; b |] -> (
      match Value.equal a b with
      | eq -> bool_value (not eq)
      | exception Invalid_argument _ -> exec_error "equality on functions")
    | v -> exec_error "<> expected a pair, got %s" (Value.to_string v))
  | P.Pconcat -> (
    match arg with
    | Vtuple [| Vstring a; Vstring b |] -> Vstring (a ^ b)
    | v -> exec_error "^ expected strings, got %s" (Value.to_string v))
  | P.Psize -> (
    match arg with
    | Vstring s -> Vint (String.length s)
    | v -> exec_error "size expected a string, got %s" (Value.to_string v))
  | P.Pint_to_string -> (
    match arg with
    | Vint n -> Vstring (Support.Int_text.to_string n)
    | v -> exec_error "intToString expected an int, got %s" (Value.to_string v))
  | P.Pstring_to_int -> (
    match arg with
    | Vstring s -> (
      match Support.Int_text.of_string s with
      | Some n -> Vint n
      | None -> raise_basis "Fail" (Some (Vstring ("stringToInt: " ^ s))))
    | v -> exec_error "stringToInt expected a string, got %s" (Value.to_string v))
  | P.Pnot -> (
    match arg with
    | Vcon0 0 -> bool_value true
    | Vcon0 1 -> bool_value false
    | v -> exec_error "not expected a bool, got %s" (Value.to_string v))
  | P.Pref -> Vref (ref arg)
  | P.Pderef -> (
    match arg with
    | Vref cell -> !cell
    | v -> exec_error "! expected a ref, got %s" (Value.to_string v))
  | P.Passign -> (
    match arg with
    | Vtuple [| Vref cell; v |] ->
      cell := v;
      unit_value
    | v -> exec_error ":= expected (ref, value), got %s" (Value.to_string v))
  | P.Pprint -> (
    match arg with
    | Vstring s ->
      rt.output s;
      unit_value
    | v -> exec_error "print expected a string, got %s" (Value.to_string v))
  | P.Pexit -> (
    match arg with
    | Vint n -> raise (Sml_exit n)
    | v -> exec_error "exit expected an int, got %s" (Value.to_string v))

(* ------------------------------------------------------------------ *)
(* Conversion to flat-environment closures                             *)
(* ------------------------------------------------------------------ *)

(* A term is converted once into OCaml closures, then run.  Converted
   code reads two flat arrays: the variables its enclosing function
   captured, and the locals of the current activation.  Every variable
   resolves at conversion time to a slot in one of them or to a
   constant, so running the code never searches an environment.  A
   condition converts to a [test], which yields an OCaml boolean
   instead of a bool value. *)
type code = Value.t array -> Value.t array -> Value.t
type test = Value.t array -> Value.t array -> bool

type access = Local of int | Captured of int | Const of Value.t

(* one function body under conversion: its [outer] function and that
   function's scope where this one is defined, the locals allocated so
   far, and the variables it captures, each with its index and where the
   outer function finds it *)
type frame = {
  outer : (frame * int Symbol.Map.t) option;
  mutable nlocals : int;
  mutable captured : (int * access) Symbol.Map.t;
}

let new_frame outer = { outer; nlocals = 0; captured = Symbol.Map.empty }

let new_local fr =
  let slot = fr.nlocals in
  fr.nlocals <- slot + 1;
  slot

(* a variable free in [fr] is captured once, however often it occurs;
   names bound outside every function come from the initial env *)
let rec resolve consts fr scope v =
  match Symbol.Map.find_opt v scope with
  | Some slot -> Local slot
  | None -> (
    match Symbol.Map.find_opt v fr.captured with
    | Some (i, _) -> Captured i
    | None -> (
      match fr.outer with
      | None -> (
        match Symbol.Map.find_opt v consts with
        | Some value -> Const value
        | None -> exec_error "unbound runtime variable %a" Symbol.pp v)
      | Some (outer, outer_scope) -> (
        match resolve consts outer outer_scope v with
        | Const _ as c -> c
        | access ->
          let i = Symbol.Map.cardinal fr.captured in
          fr.captured <- Symbol.Map.add v (i, access) fr.captured;
          Captured i)))

let fetch env locals = function
  | Local slot -> Array.unsafe_get locals slot
  | Captured i -> Array.unsafe_get env i
  | Const value -> value

let capture_list fr =
  let captures = Array.make (Symbol.Map.cardinal fr.captured) (Local 0) in
  Symbol.Map.iter (fun _ (i, access) -> captures.(i) <- access) fr.captured;
  captures

(* a function's entry: a call's locals hold the parameter in slot 0, and
   every other slot starts out holding it too.  Each small frame size
   has its own closure, which allocates the locals inline. *)
let entry (code : code) env nlocals : Value.t -> Value.t =
  match nlocals with
  | 1 -> fun arg -> code env [| arg |]
  | 2 -> fun arg -> code env [| arg; arg |]
  | 3 -> fun arg -> code env [| arg; arg; arg |]
  | 4 -> fun arg -> code env [| arg; arg; arg; arg |]
  | _ -> fun arg -> code env (Array.make nlocals arg)

(* the runtime of the innermost [eval] now running.  Converted code
   applies primitives under it, not under the runtime it was converted
   under, so a function one unit defines prints to the output of the
   unit whose execute calls it. *)
let running = Domain.DLS.new_key (fun () -> runtime ~imports:Pid.Map.empty ())

let current () = Domain.DLS.get running

let apply fv argv =
  match fv with
  | Vclosure cl -> cl.cl_fn argv
  | Vprim p -> apply_prim (current ()) p argv
  | Vexnid id ->
    if id.has_arg then Vexn (id, Some argv)
    else exec_error "application of a nullary exception constructor"
  | v -> exec_error "application of non-function %s" (Value.to_string v)

(* int arithmetic on a literal pair skips the tuple; any other operand
   falls back to [apply_prim] *)
let int_binop p : (int -> int -> Value.t) option =
  match p with
  | P.Padd -> Some (fun a b -> Vint (a + b))
  | P.Psub -> Some (fun a b -> Vint (a - b))
  | P.Pmul -> Some (fun a b -> Vint (a * b))
  | P.Pdiv ->
    Some
      (fun a b ->
        if b = 0 then raise_basis "Div" None else Vint (P.int_div a b))
  | P.Pmod ->
    Some
      (fun a b ->
        if b = 0 then raise_basis "Div" None else Vint (P.int_mod a b))
  | _ -> None

(* so does an int comparison, which yields an OCaml boolean *)
let int_compare p : (int -> int -> bool) option =
  match p with
  | P.Plt -> Some (fun (a : int) b -> a < b)
  | P.Ple -> Some (fun (a : int) b -> a <= b)
  | P.Pgt -> Some (fun (a : int) b -> a > b)
  | P.Pge -> Some (fun (a : int) b -> a >= b)
  | P.Peq -> Some (fun (a : int) b -> a = b)
  | P.Pneq -> Some (fun (a : int) b -> a <> b)
  | _ -> None

(* a condition's bool value as an OCaml boolean *)
let truth = function
  | Vcon0 1 -> true
  | Vcon0 0 -> false
  | v -> exec_error "if on non-bool %s" (Value.to_string v)

(* what conversion resolves against: the runtime's imports, and the
   initial environment's values *)
type cx = { imports : Value.t Pid.Map.t; consts : Value.t Symbol.Map.t }

let rec conv cx fr scope (term : Lambda.t) : code =
  let const value : code = fun _ _ -> value in
  match term with
  | Lambda.Lvar v -> (
    match resolve cx.consts fr scope v with
    | Local slot -> fun _ locals -> Array.unsafe_get locals slot
    | Captured i -> fun env _ -> Array.unsafe_get env i
    | Const value -> const value)
  | Lambda.Lint n -> const (Vint n)
  | Lambda.Lstring s -> const (Vstring s)
  | Lambda.Limport pid -> (
    match Pid.Map.find_opt pid cx.imports with
    | Some value -> const value
    | None ->
      Diag.error Diag.Link Support.Loc.dummy "unsatisfied import %s"
        (Pid.to_hex pid))
  | Lambda.Lprim p -> const (Vprim p)
  | Lambda.Lbasisexn name -> const (Vexnid (basis_exnid name))
  | Lambda.Lfn (param, body) ->
    let init = fn cx fr scope param body in
    fun env locals ->
      let cl = { cl_fn = Fun.id } in
      init env locals cl;
      Vclosure cl
  | Lambda.Lapp (Lambda.Lprim p, Lambda.Ltuple [ _; _ ])
    when Option.is_some (int_compare p) ->
    let test = conv_test cx fr scope term in
    fun env locals -> bool_value (test env locals)
  | Lambda.Lapp (Lambda.Lprim p, arg) -> (
    match (int_binop p, arg) with
    | Some op, Lambda.Ltuple [ a; b ] ->
      let a = conv cx fr scope a and b = conv cx fr scope b in
      fun env locals ->
        let x = a env locals in
        let y = b env locals in
        (match (x, y) with
        | Vint m, Vint n -> op m n
        | _ -> apply_prim (current ()) p (Vtuple [| x; y |]))
    | _ ->
      let arg = conv cx fr scope arg in
      fun env locals -> apply_prim (current ()) p (arg env locals))
  | Lambda.Lapp (f, arg) ->
    let f = conv cx fr scope f and arg = conv cx fr scope arg in
    fun env locals ->
      let fv = f env locals in
      apply fv (arg env locals)
  | Lambda.Llet (v, e, body) ->
    let e = conv cx fr scope e in
    let slot = new_local fr in
    let body = conv cx fr (Symbol.Map.add v slot scope) body in
    fun env locals ->
      Array.unsafe_set locals slot (e env locals);
      body env locals
  | Lambda.Lfix (binds, body) ->
    let scope =
      List.fold_left
        (fun scope (f, _, _) -> Symbol.Map.add f (new_local fr) scope)
        scope binds
    in
    let inits =
      List.map
        (fun (f, param, fbody) ->
          (Symbol.Map.find f scope, fn cx fr scope param fbody))
        binds
    in
    let body = conv cx fr scope body in
    fun env locals ->
      (* the closures go into their slots before any is initialised, so
         each can capture the others *)
      let closures =
        List.map
          (fun (slot, _) ->
            let cl = { cl_fn = Fun.id } in
            locals.(slot) <- Vclosure cl;
            cl)
          inits
      in
      List.iter2 (fun (_, init) cl -> init env locals cl) inits closures;
      body env locals
  | Lambda.Ltuple [ a; b ] ->
    let a = conv cx fr scope a and b = conv cx fr scope b in
    fun env locals ->
      let x = a env locals in
      let y = b env locals in
      Vtuple [| x; y |]
  | Lambda.Ltuple parts ->
    let parts = Array.of_list (List.map (conv cx fr scope) parts) in
    fun env locals -> Vtuple (Array.map (fun part -> part env locals) parts)
  | Lambda.Lselect (i, e) -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vtuple parts when i < Array.length parts -> parts.(i)
      | v -> exec_error "bad tuple projection #%d of %s" i (Value.to_string v))
  | Lambda.Lrecord fields ->
    let fields =
      List.map (fun (name, e) -> (name, conv cx fr scope e)) fields
    in
    fun env locals ->
      Vrecord
        (List.fold_left
           (fun acc (name, e) -> Symbol.Map.add name (e env locals) acc)
           Symbol.Map.empty fields)
  | Lambda.Lfield (name, e) -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vrecord fields -> (
        match Symbol.Map.find_opt name fields with
        | Some v -> v
        | None -> exec_error "structure has no component %a" Symbol.pp name)
      | v -> exec_error "field access on non-structure %s" (Value.to_string v))
  | Lambda.Lcon0 tag -> const (Vcon0 tag)
  | Lambda.Lcon (tag, e) ->
    let e = conv cx fr scope e in
    fun env locals -> Vcon (tag, e env locals)
  | Lambda.Lcontag e -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vcon0 tag | Vcon (tag, _) -> Vint tag
      | v -> exec_error "tag of non-constructor %s" (Value.to_string v))
  | Lambda.Lconarg e -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vcon (_, arg) -> arg
      | v ->
        exec_error "argument of non-unary-constructor %s" (Value.to_string v))
  | Lambda.Lnewexn (name, has_arg) ->
    (* generative: a fresh identity on every evaluation *)
    fun _ _ -> Vexnid (fresh_exnid name has_arg)
  | Lambda.Lmkexn0 e -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vexnid id -> Vexn (id, None)
      | v -> exec_error "mkexn0 of non-exception %s" (Value.to_string v))
  | Lambda.Lexnid e -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vexnid id | Vexn (id, _) -> Vint id.uid
      | v -> exec_error "exnid of non-exception %s" (Value.to_string v))
  | Lambda.Lexnarg e -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vexn (_, Some arg) -> arg
      | Vexn (_, None) -> exec_error "exception packet carries no argument"
      | v -> exec_error "exnarg of non-packet %s" (Value.to_string v))
  | Lambda.Lif (c, t, e) ->
    let c = conv_test cx fr scope c and t = conv cx fr scope t in
    let e = conv cx fr scope e in
    fun env locals -> if c env locals then t env locals else e env locals
  | Lambda.Lraise e -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vexn _ as packet -> raise (Sml_raise packet)
      | v -> exec_error "raise of non-packet %s" (Value.to_string v))
  | Lambda.Lhandle (body, v, handler) -> (
    let body = conv cx fr scope body in
    let slot = new_local fr in
    let handler = conv cx fr (Symbol.Map.add v slot scope) handler in
    fun env locals ->
      match body env locals with
      | value -> value
      | exception Sml_raise packet ->
        Array.unsafe_set locals slot packet;
        handler env locals)

(* a condition: a constructor's tag test reads the tag in place, an int
   comparison on a literal pair compares the ints, and anything else is
   a bool value.  A comparison on other operands falls back to
   [apply_prim]. *)
and conv_test cx fr scope (term : Lambda.t) : test =
  let value () =
    let c = conv cx fr scope term in
    fun env locals -> truth (c env locals)
  in
  match term with
  | Lambda.Lapp
      (Lambda.Lprim P.Peq, Lambda.Ltuple [ Lambda.Lcontag e; Lambda.Lint tag ])
    -> (
    let e = conv cx fr scope e in
    fun env locals ->
      match e env locals with
      | Vcon0 t | Vcon (t, _) -> t = tag
      | v -> exec_error "tag of non-constructor %s" (Value.to_string v))
  | Lambda.Lapp (Lambda.Lprim p, Lambda.Ltuple [ a; b ]) -> (
    match int_compare p with
    | Some op ->
      let a = conv cx fr scope a and b = conv cx fr scope b in
      fun env locals ->
        let x = a env locals in
        let y = b env locals in
        (match (x, y) with
        | Vint m, Vint n -> op m n
        | _ -> truth (apply_prim (current ()) p (Vtuple [| x; y |])))
    | None -> value ())
  | _ -> value ()

(* [fn cx fr scope param body] sets up the closures of a function
   defined in [fr]: the result [init env locals cl] fills in [cl].
   Top-level code runs once per execute, and most functions it defines
   are never called, so a function defined there is converted on its
   first call instead.  Until then its closure holds the top frame's
   locals: the slots in its scope are written before it exists and never
   change, so capturing them late reads the same values. *)
and fn cx fr scope param body =
  let convert () =
    let inner = new_frame (Some (fr, scope)) in
    let code =
      conv cx inner (Symbol.Map.singleton param (new_local inner)) body
    in
    (code, capture_list inner, inner.nlocals)
  in
  if Option.is_none fr.outer then fun _ locals cl ->
    cl.cl_fn <-
      (fun arg ->
        let code, captures, nlocals = convert () in
        cl.cl_fn <- entry code (Array.map (fetch [||] locals) captures) nlocals;
        cl.cl_fn arg)
  else
    let code, captures, nlocals = convert () in
    fun env locals cl ->
      cl.cl_fn <- entry code (Array.map (fetch env locals) captures) nlocals

let eval (rt : runtime) env term =
  let top = new_frame None in
  let code =
    Obs.Trace.span ~cat:"link" "link.convert" (fun () ->
        conv { imports = rt.imports; consts = env } top Symbol.Map.empty term)
  in
  let caller = current () in
  Domain.DLS.set running rt;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set running caller)
    (fun () -> code [||] (Array.make top.nlocals unit_value))

let run rt term = eval rt Symbol.Map.empty term
