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

let equal = ( = )
let pp ppf p = Format.pp_print_string ppf (name p)
