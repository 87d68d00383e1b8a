module Types = Statics.Types
module Value = Dynamics.Value

let rec collect_list acc value =
  match value with
  | Value.Vcon0 0 -> Some (List.rev acc)
  | Value.Vcon (1, Value.Vtuple [| head; tail |]) ->
    collect_list (head :: acc) tail
  | _ -> None

(* depth-limited so cyclic refs cannot loop *)
let rec go ctx depth ty value =
  if depth > 12 then "..."
  else
    let ty = Statics.Unify.head_normalize ctx ty in
    match (ty, value) with
    | _, Value.Vint n -> Support.Int_text.to_string n
    | _, Value.Vstring s -> Printf.sprintf "%S" s
    | _, (Value.Vclosure _ | Value.Vprim _) -> "fn"
    | _, Value.Vexnid id -> "exn " ^ Support.Symbol.name id.Value.exn_name
    | _, Value.Vexn (id, None) -> Support.Symbol.name id.Value.exn_name
    | Types.Tcon (stamp, _), Value.Vexn (id, Some arg)
      when Statics.Stamp.equal stamp Statics.Basis.exn_stamp ->
      Printf.sprintf "%s %s" (Support.Symbol.name id.Value.exn_name)
        (go ctx (depth + 1) (Types.Tvar (ref (Types.Unbound { id = 0; level = 0 }))) arg)
    | _, Value.Vexn (id, Some _) -> Support.Symbol.name id.Value.exn_name ^ " _"
    | Types.Ttuple [], Value.Vtuple [||] -> "()"
    | Types.Ttuple parts, Value.Vtuple values
      when List.length parts = Array.length values ->
      "("
      ^ String.concat ", "
          (List.mapi (fun i t -> go ctx (depth + 1) t values.(i)) parts)
      ^ ")"
    | Types.Tcon (stamp, [ elem ]), _
      when Statics.Stamp.equal stamp Statics.Basis.list_stamp -> (
      match collect_list [] value with
      | Some items ->
        "[" ^ String.concat ", " (List.map (go ctx (depth + 1) elem) items) ^ "]"
      | None -> dump value)
    | Types.Tcon (stamp, _), Value.Vcon0 tag
      when Statics.Stamp.equal stamp Statics.Basis.bool_stamp ->
      if tag = 1 then "true" else "false"
    | Types.Tcon (stamp, [ elem ]), Value.Vref cell
      when Statics.Stamp.equal stamp Statics.Basis.ref_stamp ->
      "ref (" ^ go ctx (depth + 1) elem !cell ^ ")"
    | Types.Tcon (stamp, args), (Value.Vcon0 tag | Value.Vcon (tag, _)) -> (
      (* a user datatype: look its constructors up in the context *)
      match Statics.Context.find ctx stamp with
      | Some { Types.tyc_defn = Types.Data cds; _ } -> (
        match List.find_opt (fun cd -> cd.Types.cd_tag = tag) cds with
        | Some cd -> (
          let name = Support.Symbol.name cd.Types.cd_name in
          match (cd.Types.cd_arg, value) with
          | Some arg_ty, Value.Vcon (_, arg) ->
            let arg_ty =
              Types.instantiate_scheme (Array.of_list args)
                { Types.arity = List.length args; body = arg_ty }
            in
            Printf.sprintf "%s (%s)" name (go ctx (depth + 1) arg_ty arg)
          | _, _ -> name)
        | None -> dump value)
      | _ -> dump value)
    | _, _ -> dump value

and dump value = Value.to_string value

let print ctx ty value = go ctx 0 ty value
