(** The compilation-unit dependency DAG and its topological order. *)

module Symbol := Support.Symbol

type node = {
  n_file : string;
  n_summary : Scan.summary;
  n_deps : string list;  (** files this unit depends on, sorted *)
}

type t

(** [build units] — [units] are (file, parsed source) pairs.  A unit
    depends on the unit defining each of its free module names;
    names defined by no unit (initial basis, external libraries) are
    ignored.  A module name defined by two units is an error
    (phase [Manager]). *)
val build : (string * Lang.Ast.unit_) list -> t

(** [of_summaries summaries] — the same graph from (file, scan summary)
    pairs, for callers that already hold each unit's {!Scan.summary}
    ([build] is [of_summaries] over {!Scan.scan}). *)
val of_summaries : (string * Scan.summary) list -> t

val node : t -> string -> node

(** Files in dependency order (dependencies first), sorted once when
    the graph is built.  Raises {!Support.Diag.Error} (phase
    [Manager]) on a dependency cycle, naming the files involved — on
    every call. *)
val topological : t -> string list

(** Direct dependents (reverse edges) of a file. *)
val dependents : t -> string -> string list

(** The transitive dependents ("cone") of a file, excluding itself. *)
val cone : t -> string -> string list

(** The transitive {e dependencies} of a file, excluding itself, in
    dependency order — the order a fresh session must load them in.
    Read off {!topological}'s order, so its cost grows with the
    closure, not the graph; raises as {!topological} does. *)
val closure : t -> string -> string list

(** [ready t ~completed] — the files whose dependencies all satisfy
    [completed] but which are not yet [completed] themselves: the next
    wavefront a scheduler may dispatch.  In input order. *)
val ready : t -> completed:(string -> bool) -> string list

(** ASAP wavefronts: level 0 is every file with no dependencies, level
    [d] every file whose deepest dependency chain has length [d].  All
    files of one level are mutually independent. *)
val levels : t -> string list list

(** The widest wavefront of {!levels} — an upper bound on usable build
    parallelism ([0] for the empty graph). *)
val width : t -> int

(** Provider of a module name, if any. *)
val provider : t -> Symbol.t -> string option

val files : t -> string list
