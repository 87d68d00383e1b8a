(** Built-in primitive operations of the initial basis. *)

type t =
  (* integer arithmetic *)
  | Padd
  | Psub
  | Pmul
  | Pdiv
  | Pmod
  | Pneg
  (* comparisons; [Peq]/[Pneq] are polymorphic structural equality *)
  | Plt
  | Ple
  | Pgt
  | Pge
  | Peq
  | Pneq
  (* strings *)
  | Pconcat
  | Psize
  | Pint_to_string
  | Pstring_to_int  (** partial: raises [Fail] on malformed input *)
  (* booleans *)
  | Pnot
  (* references *)
  | Pref
  | Pderef
  | Passign
  (* i/o and misc *)
  | Pprint
  | Pexit

(** Stable name used for pickling and for the basis environment entry. *)
val name : t -> string

(** Inverse of {!name}. *)
val of_name : string -> t option

(** All primitives, for exhaustive registration in the basis. *)
val all : t list

(** SML's [div]: the quotient rounded toward negative infinity.  The
    divisor must not be zero. *)
val int_div : int -> int -> int

(** SML's [mod]: the remainder of {!int_div}, which takes the divisor's
    sign, so [a = b * int_div a b + int_mod a b].  The divisor must not
    be zero. *)
val int_mod : int -> int -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
