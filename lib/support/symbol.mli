(** Interned identifiers.

    All identifiers appearing in MiniSML source code are interned into
    symbols so that comparison is O(1) and symbol tables can be keyed by a
    dense integer.  Interning is global and append-only; symbols are never
    garbage collected (the compiler runs batch-style, as in SML/NJ). *)

type t

(** [intern s] returns the unique symbol for the string [s]. *)
val intern : string -> t

(** [intern_sub s pos len] is [intern (String.sub s pos len)], read in
    place: it allocates only the first time it sees a name.  Raises
    [Invalid_argument] if the slice is not within [s]. *)
val intern_sub : string -> int -> int -> t

(** [name sym] is the string [sym] was interned from. *)
val name : t -> string

(** [id sym] is a dense non-negative integer unique to [sym]. *)
val id : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** [fresh base] interns a symbol guaranteed not to collide with any
    source-written identifier, by embedding a serial number.  Used for
    generated bindings in the elaborator and lambda translation.  The
    serial counter is domain-local, so concurrent compilations on
    separate domains draw independent sequences. *)
val fresh : string -> t

(** [with_fresh_scope f] runs [f] with this domain's fresh-symbol
    counter reset to zero, restoring it afterwards.  Wrapping the
    compilation of one unit in a scope makes every generated name a
    deterministic function of the unit alone — the property that makes
    bin files byte-reproducible regardless of compilation order or
    which domain ran the compile. *)
val with_fresh_scope : (unit -> 'a) -> 'a

(** Finite maps and sets keyed by symbols. *)
module Map : Map.S with type key = t
module Set : Set.S with type elt = t

(** Mutable hash tables keyed by symbols. *)
module Table : Hashtbl.S with type key = t
