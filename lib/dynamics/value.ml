module Symbol = Support.Symbol

type exnid = { uid : int; exn_name : Symbol.t; has_arg : bool }

type t =
  | Vint of int
  | Vstring of string
  | Vtuple of t array
  | Vrecord of t Symbol.Map.t
  | Vcon0 of int
  | Vcon of int * t
  | Vclosure of closure
  | Vprim of Statics.Prim.t
  | Vexnid of exnid
  | Vexn of exnid * t option
  | Vref of t ref

and closure = { mutable cl_fn : t -> t }

let unit_value = Vtuple [||]
let v_true = Vcon0 1
let v_false = Vcon0 0
let bool_value b = if b then v_true else v_false

let of_list values =
  List.fold_right (fun v acc -> Vcon (1, Vtuple [| v; acc |])) values (Vcon0 0)

let rec equal a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vstring x, Vstring y -> String.equal x y
  | Vtuple xs, Vtuple ys ->
    Array.length xs = Array.length ys
    && (let ok = ref true in
        Array.iteri (fun i x -> if not (equal x ys.(i)) then ok := false) xs;
        !ok)
  | Vrecord xs, Vrecord ys -> Symbol.Map.equal equal xs ys
  | Vcon0 x, Vcon0 y -> x = y
  | Vcon (tx, vx), Vcon (ty, vy) -> tx = ty && equal vx vy
  | Vexnid x, Vexnid y -> x.uid = y.uid
  | Vexn (x, ax), Vexn (y, ay) -> (
    x.uid = y.uid
    &&
    match (ax, ay) with
    | None, None -> true
    | Some va, Some vb -> equal va vb
    | None, Some _ | Some _, None -> false)
  | Vref x, Vref y -> x == y
  | (Vclosure _ | Vprim _), _ | _, (Vclosure _ | Vprim _) ->
    invalid_arg "equality on functions"
  | _ -> false

let rec pp ppf v =
  match v with
  | Vint n -> Format.pp_print_string ppf (Support.Int_text.to_string n)
  | Vstring s -> Format.fprintf ppf "%S" s
  | Vtuple [||] -> Format.pp_print_string ppf "()"
  | Vtuple parts ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp)
      (Array.to_list parts)
  | Vrecord fields ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (name, v) -> Format.fprintf ppf "%s=%a" (Symbol.name name) pp v))
      (Symbol.Map.bindings fields)
  | Vcon0 tag -> Format.fprintf ppf "con%d" tag
  | Vcon (tag, arg) -> Format.fprintf ppf "con%d(%a)" tag pp arg
  | Vclosure _ -> Format.pp_print_string ppf "fn"
  | Vprim p -> Format.fprintf ppf "fn<%s>" (Statics.Prim.name p)
  | Vexnid id -> Format.fprintf ppf "exn<%s>" (Symbol.name id.exn_name)
  | Vexn (id, None) -> Format.fprintf ppf "%s" (Symbol.name id.exn_name)
  | Vexn (id, Some arg) ->
    Format.fprintf ppf "%s(%a)" (Symbol.name id.exn_name) pp arg
  | Vref cell -> Format.fprintf ppf "ref(%a)" pp !cell

let to_string v = Format.asprintf "%a" pp v
