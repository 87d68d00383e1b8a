(** Signal names for messages.  OCaml numbers signals with its own
    negative constants ([Sys.sigkill] is [-7]), so a [WSIGNALED] status
    printed with [%d] says nothing to a reader. *)

(** [name n] — ["SIGKILL"], ["SIGSEGV"], … for a signal OCaml knows;
    the number itself for any other. *)
val name : int -> string
