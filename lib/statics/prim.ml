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

(* SML's int arithmetic raises Overflow where OCaml's wraps: each test
   says whether the wrapped result differs from the exact one.  A sum
   overflows when its operands share a sign and the result has the
   other; a difference, when its operands' signs differ and the result's
   differs from the first operand's.  Two factors within ±2^30 always
   fit; otherwise the product overflowed unless dividing it back gives
   the other factor, except for [~1 * min_int], which divides back. *)
let add_overflows a b =
  let s = a + b in
  (a lxor s) land (b lxor s) < 0

let sub_overflows a b =
  let d = a - b in
  (a lxor b) land (a lxor d) < 0

let mul_overflows a b =
  ((a + 0x4000_0000) lor (b + 0x4000_0000)) lsr 31 <> 0
  && a <> 0
  && ((a * b) / a <> b || (a = -1 && b = min_int))

let neg_overflows a = a = min_int
let div_overflows a b = a = min_int && b = -1

let equal = ( = )
let pp ppf p = Format.pp_print_string ppf (name p)
