(** Runtime values of the MiniSML evaluator. *)

module Symbol := Support.Symbol

(** A generative exception identity.  Allocated by executing an
    [exception] declaration; two executions yield two identities. *)
type exnid = { uid : int; exn_name : Symbol.t; has_arg : bool }

type t =
  | Vint of int
  | Vstring of string
  | Vtuple of t array  (** unit is the empty tuple *)
  | Vrecord of t Symbol.Map.t  (** structure value *)
  | Vcon0 of int  (** nullary datatype constructor *)
  | Vcon of int * t  (** unary datatype constructor *)
  | Vclosure of closure
  | Vprim of Statics.Prim.t  (** primitive as a first-class value *)
  | Vexnid of exnid  (** exception constructor *)
  | Vexn of exnid * t option  (** exception packet *)
  | Vref of t ref

and closure = { mutable cl_fn : t -> t }
(** A function value: converted code closed over its captured
    variables.  [cl_fn] is mutable so a recursive knot can be tied after
    the closure is allocated. *)

val unit_value : t
val bool_value : bool -> t
val of_list : t list -> t  (** MiniSML list value *)

(** Structural equality, as the [=] primitive defines it: ints, strings,
    tuples, constructors, records, and refs (by identity), exception
    identities by uid.  Raises [Invalid_argument] on closures and
    primitives, mirroring SML's type-level exclusion of function
    equality. *)
val equal : t -> t -> bool

(** Render a value for the REPL ([print]-style, not re-parseable for
    closures). *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
