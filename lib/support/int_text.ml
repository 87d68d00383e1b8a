(* OCaml prints [min_int] right ([-min_int] would overflow back to
   [min_int]): only the sign changes *)
let to_string n =
  let s = string_of_int n in
  if n >= 0 then s else "~" ^ String.sub s 1 (String.length s - 1)

let of_string s =
  let neg = String.starts_with ~prefix:"~" s in
  let digits = if neg then String.sub s 1 (String.length s - 1) else s in
  if digits <> "" && String.for_all (fun c -> '0' <= c && c <= '9') digits
  then int_of_string_opt (if neg then "-" ^ digits else digits)
  else None
