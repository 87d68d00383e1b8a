(** The initial basis: well-known type constructors, constructors
    ([true]/[false]/[nil]/[::]), primitive values, and the standard
    exceptions ([Match], [Bind], [Div], [Fail], [Subscript]).

    Everything here has a [Global] stamp, so the basis hashes and
    pickles identically in every process — a precondition for intrinsic
    pids being stable across machines ("static environments should be
    self-contained", section 4). *)

(** Well-known stamps. *)
val int_stamp : Stamp.t

val bool_stamp : Stamp.t
val string_stamp : Stamp.t
val list_stamp : Stamp.t
val ref_stamp : Stamp.t
val exn_stamp : Stamp.t

(** Well-known types. *)
val int_ty : Types.ty

val bool_ty : Types.ty
val string_ty : Types.ty
val unit_ty : Types.ty
val exn_ty : Types.ty
val list_ty : Types.ty -> Types.ty
val ref_ty : Types.ty -> Types.ty

(** Constructor descriptions. *)
val true_cd : Types.condesc

val false_cd : Types.condesc
val nil_cd : Types.condesc
val cons_cd : Types.condesc

(** Stamps of the predefined exceptions, in declaration order:
    Match, Bind, Div, Fail, Subscript, Overflow.  A new exception is
    appended, so no existing stamp moves. *)
val exn_stamps : (string * Stamp.t * Types.ty option) list

val match_stamp : Stamp.t
val bind_stamp : Stamp.t
val div_stamp : Stamp.t
val fail_stamp : Stamp.t
val subscript_stamp : Stamp.t
val overflow_stamp : Stamp.t

(** [env ()] is the initial static environment.  [register ctx] must be
    called on every new compilation context so the global tycons are
    resolvable. *)
val env : unit -> Types.env

val register : Context.t -> unit
