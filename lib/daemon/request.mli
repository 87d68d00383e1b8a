(** One build request, whichever front end it came through.

    [irm build], [irm run] and [irm stats] in-process, and the daemon's
    [Build] and [Run], all answer through {!serve}, and their failures
    through one exit-code table, {!of_exn}.  So a daemon's answer
    equals the in-process one by construction: same listing bytes,
    same diagnostics, same exit codes. *)

(** What a request builds with; the front end decides it. *)
type env = {
  fs : Vfs.fs;
  profile : Obs.Profile.t option;
  cache : Cache.ops option;
  backend : Irm.Driver.backend option;
      (** [None]: from [b_jobs], serial at one job *)
}

(** A build that ran: its group's sources and its stats. *)
type built = { sources : string list; stats : Irm.Driver.stats }

(** A [Run] answers with its [execute] once the build is clean: the
    one-shot front end streams the program's output, the daemon buffers
    it and keeps its memo. *)
type kind = Build | Run of (built -> Protocol.response)

(** The options of a request that sets nothing: policy [cutoff],
    schedule [auto], the machine's recommended job count, no cache,
    text diagnostics.  The CLI's flags default to these, and the
    daemon's startup and watch builds start from them. *)
val defaults : string -> Protocol.build_opts

(** [sources fs group] — the sources [group] lists; none is an error. *)
val sources : Vfs.fs -> string -> string list

(** [serve ~dir ~env mgr kind opts ~on_diag] — take [dir]'s build
    {!Lock} (waiting up to a second for another build to finish), make
    the environment with [env] under it, resolve the policy and the
    schedule ([auto] against the profile store), then build
    [opts.b_group] on [mgr] and answer.  In JSON mode the
    [smlsep-diag/1] envelope goes to [on_diag] as soon as the build is
    done.  A [Build] answers the listing (text mode) and the text
    diagnostics, a failed [Run] its diagnostics.  An unknown policy or
    schedule answers exit code 2 and builds nothing ([None]).
    Exceptions propagate: see {!guard}. *)
val serve :
  dir:string ->
  env:(unit -> env) ->
  Irm.Driver.t ->
  kind ->
  Protocol.build_opts ->
  on_diag:(string -> unit) ->
  built option * Protocol.response

(** [execute ~output mgr sources] — {!Irm.Driver.run} with the
    program's output going to [output] (the answer's [r_out] is
    empty).  A raising or exiting program answers its exit code; any
    other exception propagates. *)
val execute :
  output:(string -> unit) -> Irm.Driver.t -> string list -> Protocol.response

(** The exit-code table.  [of_exn ~diagnostics exn] answers
    {!Support.Diag.Error}/[Errors] and {!Pickle.Buf.Corrupt} through
    [diagnostics] (1), {!Lock.Held}, {!Vfs.Fault} and [Sys_error] (1),
    {!Vfs.Crash} (3), {!Remote.Pool.Pool_down} (4), an uncaught SML
    exception (1) and an SML [exit n] ([n]), also when a [Fun.protect]
    cleanup raised it.  Any other exception — {!Irm.Driver.Interrupted}
    among them — is re-raised. *)
val of_exn :
  diagnostics:(Support.Diag.t list -> Protocol.response) ->
  exn ->
  Protocol.response

(** [guard ~json ~on_diag f] — [f ()], a failure answered by {!of_exn}
    with diagnostics one line each on [r_err], or in JSON mode as the
    [smlsep-diag/1] envelope to [on_diag]. *)
val guard :
  json:bool ->
  on_diag:(string -> unit) ->
  (unit -> Protocol.response) ->
  Protocol.response
