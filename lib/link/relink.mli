(** Live relinking: swap rebuilt units into a running program.

    The paper's cutoff is a static fact: an unchanged export pid means
    dependents need not be {e recompiled}.  It is no licence not to
    {e re-execute} them — [execute : codeUnit × dynenv → dynenv] makes a
    dependent's values a function of its imports' values, and a shared
    [ref] cell can carry a change to units that import nothing new.  So
    there is one relink path: a non-null swap executes every unit in
    link order from {!Linker.empty} into a new epoch, which is a clean
    restart by construction, shared references included.  An epoch
    keeps what that restart printed; the staged dynenv is dropped once
    verified, since nothing reads its values between swaps.

    Every swap is transactional: staging builds a dynenv from scratch
    (it shares no state with the serving epoch, so rollback is
    structural), the named steps
    [begin]/[stage]/[verify]/[seal]/[commit] are announced through
    [on_step], and the live structure mutates only after the last
    announcement — an abort, link failure, watchdog timeout, or client
    disconnect at {e any} step leaves the prior epoch serving.

    Each unit is relinked through {!Linker.execute}, so an unsatisfied
    import is [E0601].  [E0801] {e seal-violation} (phase [Link]) guards
    the boundary: a unit whose interface pid is unchanged altered its
    exported surface, or the staged dynenv would expose bindings beyond
    the declared export interfaces (opaque ascription must seal
    internals across the swap boundary). *)

(** What the builder hands the relinker, one per unit in link
    (topological) order: identity, code, and a fingerprint of the bin
    bytes that changes iff the unit was rebuilt to different output. *)
type unit_src = {
  u_name : string;
  u_static_pid : Digestkit.Pid.t;  (** intrinsic pid of the interface *)
  u_cu : Codeunit.t;
  u_fingerprint : string;  (** digest of the unit's bin bytes *)
}

type kind =
  | Null  (** same units, same bins, same order: nothing ran *)
  | Epoch_bump  (** every unit re-executed into a new epoch *)

type outcome = {
  o_kind : kind;
  o_epoch : int;  (** the epoch serving after the swap *)
}

(** Raised when a swap rolls back without a diagnostic: [abort_check]
    asked for it, the watchdog budget ran out, or [on_step] itself
    raised.  The string says why. *)
exception Swap_aborted of string

(** How a unit's execution ended the program: an uncaught exception
    packet, or a call to [exit] with its status. *)
type failure = Raised of Dynamics.Value.t | Exited of int

(** Raised when a unit raised or called [exit] while the swap executed
    it: [output] is what the program printed before that. *)
exception Program_failed of { output : string; cause : failure }

type t

(** [create ()] — an empty relinker.  It retains at most 4 retired
    epoch records for inspection. *)
val create : unit -> t

(** Has a swap established an epoch yet? *)
val live : t -> bool

(** [swap ?on_step ?budget_s ?abort_check t ~units] — reconcile the
    rebuilt unit list against the current epoch.  The first swap of an
    empty relinker establishes epoch 0.

    [on_step] hears each transaction step name just before it runs;
    the commit mutations happen strictly after the last call, so a
    crash injected at any step observes the old state intact.
    [abort_check] is polled at every step: returning [Some reason]
    (e.g. the requesting client disconnected) aborts and rolls back.
    [budget_s] is the watchdog, checked at every step: a swap that has
    run longer aborts.  Without it a swap has no deadline.

    Raises {!Swap_aborted}, {!Program_failed}, or {!Support.Diag.Error}
    with [E0801] or [E0601] — in every case the prior epoch keeps
    serving and the rollback is counted. *)
val swap :
  ?on_step:(string -> unit) ->
  ?budget_s:float ->
  ?abort_check:(unit -> string option) ->
  t ->
  units:unit_src list ->
  outcome

(** The serving epoch's id.  Raises [Invalid_argument] before the first
    swap. *)
val current_epoch : t -> int

(** [replay t ~output] — emit the current epoch's program output, as
    captured when the epoch was built: byte-identical to a clean
    restart at that epoch's state. *)
val replay : t -> output:(string -> unit) -> unit

type epoch_info = {
  ei_id : int;
  ei_state : string;  (** [current] or [retired] *)
  ei_units : int;
  ei_cause : string;  (** [baseline] or the units the swap rebuilt *)
}

(** Newest first: the current epoch, then at most 4 retired ones. *)
val epochs : t -> epoch_info list

type counters = { c_null : int; c_epoch : int; c_rollbacks : int }

val counters : t -> counters
