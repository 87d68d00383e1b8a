open Types

exception Unify_error of ty * ty

(* atomic: unification variables are per-compilation, but concurrent
   compiles on separate domains share this id spring *)
let tyvar_counter = Atomic.make 0

let fresh_tyvar ~level () =
  Tvar (ref (Unbound { id = Atomic.fetch_and_add tyvar_counter 1 + 1; level }))

let rec head_normalize ctx ty =
  match repr ty with
  | Tcon (stamp, args) as t -> (
    match Context.find ctx stamp with
    | Some { tyc_defn = Alias scheme; _ } ->
      head_normalize ctx (instantiate_scheme (Array.of_list args) scheme)
    | Some _ | None -> t)
  | t -> t

(* Occurs check and level lowering in one pass. *)
let rec adjust ctx cell_id max_level ty =
  match repr ty with
  | Tvar ({ contents = Unbound { id; level } } as cell) ->
    if id = cell_id then raise (Unify_error (ty, ty))
    else if level > max_level then cell := Unbound { id; level = max_level }
  | Tvar { contents = Link _ } -> assert false (* repr *)
  | Tgen _ -> ()
  | Tcon (stamp, args) -> (
    (* adjust through aliases so hidden occurrences are caught *)
    match Context.find ctx stamp with
    | Some { tyc_defn = Alias scheme; _ } ->
      adjust ctx cell_id max_level
        (instantiate_scheme (Array.of_list args) scheme)
    | Some _ | None -> List.iter (adjust ctx cell_id max_level) args)
  | Tarrow (a, b) ->
    adjust ctx cell_id max_level a;
    adjust ctx cell_id max_level b;
  | Ttuple parts -> List.iter (adjust ctx cell_id max_level) parts
  | Terror -> ()

let rec unify ctx t1 t2 =
  (* a type unifies with itself, binding nothing *)
  if t1 != t2 then unify_heads ctx (head_normalize ctx t1) (head_normalize ctx t2)

and unify_heads ctx t1 t2 =
  match (t1, t2) with
  | Tvar c1, Tvar c2 when c1 == c2 -> ()
  | Tvar ({ contents = Unbound { id; level } } as cell), other
  | other, Tvar ({ contents = Unbound { id; level } } as cell) ->
    adjust ctx id level other;
    cell := Link other
  | Tcon (s1, args1), Tcon (s2, args2) when Stamp.equal s1 s2 ->
    (try List.iter2 (unify ctx) args1 args2
     with Invalid_argument _ -> raise (Unify_error (t1, t2)))
  | Tarrow (a1, b1), Tarrow (a2, b2) ->
    unify ctx a1 a2;
    unify ctx b1 b2
  | Ttuple p1, Ttuple p2 ->
    (try List.iter2 (unify ctx) p1 p2
     with Invalid_argument _ -> raise (Unify_error (t1, t2)))
  (* the error type unifies with anything: it stands for a type the
     elaborator already reported a diagnostic about, so no constraint
     involving it should produce a second error *)
  | Terror, _ | _, Terror -> ()
  | Tgen _, _ | _, Tgen _ ->
    (* schemes are instantiated before unification; a loose Tgen is a
       compiler bug *)
    assert false
  | _ -> raise (Unify_error (t1, t2))

(* After reporting a type error, bind every unification variable still
   reachable from the offending type to the error type, so downstream
   uses of the same variables cannot produce cascading mismatches. *)
let poison ctx ty =
  let rec go ty =
    match head_normalize ctx ty with
    | Tvar ({ contents = Unbound _ } as cell) -> cell := Link Terror
    | Tvar { contents = Link _ } -> assert false (* head_normalize *)
    | Tgen _ | Terror -> ()
    | Tcon (_, args) -> List.iter go args
    | Tarrow (a, b) ->
      go a;
      go b
    | Ttuple parts -> List.iter go parts
  in
  go ty

let generalize ctx ~level ty =
  let table = Hashtbl.create 8 in
  let next = ref 0 in
  let rec go ty =
    match repr ty with
    | Tvar { contents = Unbound { id; level = l } } when l > level -> (
      match Hashtbl.find_opt table id with
      | Some idx -> Tgen idx
      | None ->
        let idx = !next in
        incr next;
        Hashtbl.add table id idx;
        Tgen idx)
    | Tvar _ as v -> v
    | Tgen _ as g -> g
    | Tcon (stamp, args) -> Tcon (stamp, List.map go args)
    | Tarrow (a, b) -> Tarrow (go a, go b)
    | Ttuple parts -> Ttuple (List.map go parts)
    | Terror -> Terror
  in
  ignore ctx;
  let body = go ty in
  { arity = !next; body }

let instantiate ~level scheme =
  if scheme.arity = 0 then scheme.body
  else
    let fresh = Array.init scheme.arity (fun _ -> fresh_tyvar ~level ()) in
    instantiate_scheme fresh scheme

let rec equal_ty ctx t1 t2 =
  let t1 = head_normalize ctx t1 and t2 = head_normalize ctx t2 in
  match (t1, t2) with
  | Tgen i, Tgen j -> i = j
  | Tcon (s1, args1), Tcon (s2, args2) ->
    Stamp.equal s1 s2
    && List.length args1 = List.length args2
    && List.for_all2 (equal_ty ctx) args1 args2
  | Tarrow (a1, b1), Tarrow (a2, b2) -> equal_ty ctx a1 a2 && equal_ty ctx b1 b2
  | Ttuple p1, Ttuple p2 ->
    List.length p1 = List.length p2 && List.for_all2 (equal_ty ctx) p1 p2
  | Tvar c1, Tvar c2 -> c1 == c2
  | Terror, Terror -> true
  | _ -> false

let equal_scheme ctx s1 s2 =
  s1.arity = s2.arity && equal_ty ctx s1.body s2.body

let more_general ctx general specific =
  (* Instantiate [general] with fresh unification variables, freeze
     [specific]'s bound variables as fresh abstract constructors (rigid
     skolems), and try to unify. *)
  let level = 1_000_000 in
  let g = instantiate ~level general in
  let skolems =
    Array.init specific.arity (fun i ->
        let stamp = Stamp.fresh () in
        Context.register ctx stamp
          {
            tyc_name = Support.Symbol.fresh (Printf.sprintf "skolem%d" i);
            tyc_arity = 0;
            tyc_defn = Abstract;
          };
        Tcon (stamp, []))
  in
  let s = instantiate_scheme skolems specific in
  match unify ctx g s with
  | () -> true
  | exception Unify_error _ -> false
