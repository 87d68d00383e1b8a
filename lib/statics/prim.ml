type t =
  | Padd
  | Psub
  | Pmul
  | Pdiv
  | Pmod
  | Pneg
  | Plt
  | Ple
  | Pgt
  | Pge
  | Peq
  | Pneq
  | Pconcat
  | Psize
  | Pint_to_string
  | Pstring_to_int
  | Pnot
  | Pref
  | Pderef
  | Passign
  | Pprint
  | Pexit

let name = function
  | Padd -> "+"
  | Psub -> "-"
  | Pmul -> "*"
  | Pdiv -> "div"
  | Pmod -> "mod"
  | Pneg -> "~"
  | Plt -> "<"
  | Ple -> "<="
  | Pgt -> ">"
  | Pge -> ">="
  | Peq -> "="
  | Pneq -> "<>"
  | Pconcat -> "^"
  | Psize -> "size"
  | Pint_to_string -> "intToString"
  | Pstring_to_int -> "stringToInt"
  | Pnot -> "not"
  | Pref -> "ref"
  | Pderef -> "!"
  | Passign -> ":="
  | Pprint -> "print"
  | Pexit -> "exit"

let all =
  [
    Padd; Psub; Pmul; Pdiv; Pmod; Pneg; Plt; Ple; Pgt; Pge; Peq; Pneq;
    Pconcat; Psize; Pint_to_string; Pstring_to_int; Pnot; Pref; Pderef;
    Passign; Pprint; Pexit;
  ]

let of_name =
  let table = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.add table (name p) p) all;
  fun n -> Hashtbl.find_opt table n

(* OCaml's [/] and [mod] truncate toward zero; a non-zero remainder
   whose sign differs from the divisor's moves the quotient down by one
   and the remainder up by one divisor *)
let int_div a b =
  let q = a / b in
  if a mod b <> 0 && (a lxor b) < 0 then q - 1 else q

let int_mod a b =
  let r = a mod b in
  if r <> 0 && (r lxor b) < 0 then r + b else r

(* OCaml prints [min_int] right ([-min_int] would overflow back to
   [min_int]): only the sign changes *)
let int_to_string n =
  let s = string_of_int n in
  if n >= 0 then s else "~" ^ String.sub s 1 (String.length s - 1)

let int_of_string s =
  let neg = String.starts_with ~prefix:"~" s in
  let digits = if neg then String.sub s 1 (String.length s - 1) else s in
  if digits <> "" && String.for_all (fun c -> '0' <= c && c <= '9') digits
  then int_of_string_opt (if neg then "-" ^ digits else digits)
  else None

let equal = ( = )
let pp ppf p = Format.pp_print_string ppf (name p)
