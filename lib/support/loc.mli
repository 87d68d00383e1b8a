(** Source locations.

    A location is a half-open character span within a named source file,
    with line/column information for diagnostics. *)

type pos = {
  line : int;  (** 1-based line number *)
  col : int;  (** 0-based column *)
  offset : int;  (** 0-based byte offset from start of file *)
}

type t = { file : string; start_pos : pos; end_pos : pos }

(** A location usable when no better information exists (generated code,
    initial basis bindings). *)
val dummy : t

(** [make file a b] spans from [a] (inclusive) to [b] (exclusive). *)
val make : string -> pos -> pos -> t

(** [merge a b] covers both [a] and [b]; they must be in the same file. *)
val merge : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
