(** Rendering for [irm explain] and [irm profile], factored out of the
    CLI so the build daemon can serve the same requests over the
    socket: both front ends produce byte-identical reports because they
    run this one implementation.

    Renderers return the finished text instead of printing, split into
    the stdout and stderr streams plus the exit code the report calls
    for — the CLI writes the two streams to its own fds, the daemon
    ships them to the client in the response frame. *)

(** A finished report: the process exit code, what belongs on stdout
    and what belongs on stderr.  The daemon's response
    ({!Daemon.Protocol.response}) is this type. *)
type rendered = { r_code : int; r_out : string; r_err : string }

(** [explain p ~unit_name ~json] — why [unit_name] was rebuilt in the
    last recorded build: outcome, cause and culprits, wall time and
    phases, the units it poisoned downstream, and its compile-time
    history.  [json] renders the [smlsep-profile/1] envelope
    (canonical form) instead of text.  Exit code 1 (with the reason on
    [r_err]) when nothing is recorded or the unit is not part of the
    last build. *)
val explain : Obs.Profile.t -> unit_name:string -> json:bool -> rendered

(** [diagnostics_envelope ?failed ?skipped diags] — the machine-readable
    [smlsep-diag/1] envelope (validated in CI against
    [schemas/diagnostics.schema.json]). *)
val diagnostics_envelope :
  ?failed:string list ->
  ?skipped:string list ->
  Support.Diag.t list ->
  Obs.Json.t

(** [build_listing mgr stats] — the per-unit
    ["<file> <pid> [tag]"] listing plus the summary line that
    [irm build] prints on stdout in text mode. *)
val build_listing : Driver.t -> Driver.stats -> string

(** [report_diagnostics ~source_of ~json stats] — a build's
    failed/skipped partitions, rendered: [json] puts the
    [smlsep-diag/1] envelope on [r_out], text puts human-readable
    diagnostics with source excerpts (via [source_of]) on [r_err].
    [r_code] is 1 when either partition is non-empty, 0 otherwise. *)
val report_diagnostics :
  source_of:(string -> string option) ->
  json:bool ->
  Driver.stats ->
  rendered

(** [profile_report p ~json ~top] — the last recorded build's summary:
    counts, rebuild causes, critical path, [top] slowest units,
    scheduler efficiency and store occupancy.  [json] renders the
    [smlsep-profile/1] envelope (canonical form). *)
val profile_report : Obs.Profile.t -> json:bool -> top:int -> rendered
