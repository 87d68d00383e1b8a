(** The executor fleet: partition-tolerant remote dispatch with the
    worker pool's interface.

    The fleet exposes exactly the surface [Sched]'s pool loop already
    drives — [submit] / [next] / [slot_busy] / [shutdown], with
    {!Worker.completion} as the result vocabulary — so the [Remote]
    backend is the [Workers] backend pointed at sockets.  Underneath, it keeps
    one nonblocking connection per executor (dial, HELLO, job traffic
    all multiplexed from the calling domain, no threads), and it
    survives the network:

    - {b per-job deadlines}: a dispatched job that has not answered
      within [r_job_timeout_s] marks its executor suspect — the
      connection is torn down, its jobs requeued;
    - {b capped jittered retry}: a failed job copy is requeued and
      retried up to [r_retries] times; executor redials back off via
      {!Support.Backoff};
    - {b hedged re-dispatch}: a job still unanswered after [r_hedge_s]
      is speculatively duplicated onto a second executor; the first
      answer wins, later ones are discarded (results are pure, so the
      race is benign);
    - {b quarantine}: [r_quarantine] consecutive failures retire an
      executor for the build, mirroring the worker pool's E0701
      discipline;
    - {b graceful degradation}: when every executor is quarantined (or
      none was configured), the fleet compiles the remaining jobs
      in-process with a one-time warning — byte-identical output, never
      a lost build.  With [r_local_fallback = false] the exhausted jobs
      fail with the [r_fail] exception instead (E0703/E0704 via
      [Irm.Wire.remote_fail]), for builds that must not fall back
      silently. *)

(** Why the fleet failed a job (fed to [r_fail], which mints E0703
    [remote-unreachable] / E0704 [remote-protocol] diagnostics). *)
type failure =
  | Unreachable of { rf_attempts : int; rf_detail : string }
  | Protocol of { rf_detail : string }

type config = {
  r_execs : Transport.addr list;
  r_slots : int;  (** concurrent jobs per executor *)
  r_job_timeout_s : float;  (** per-job network deadline *)
  r_dial_timeout_s : float;  (** connect + HELLO budget *)
  r_retries : int;  (** re-dispatch attempts per job *)
  r_hedge_s : float;  (** straggler hedge threshold; 0 disables *)
  r_quarantine : int;  (** consecutive failures that retire an executor *)
  r_backoff_s : float;  (** redial backoff base *)
  r_backoff_cap_s : float;  (** redial backoff cap *)
  r_chaos : Netchaos.plan;  (** network fault plan (client side) *)
  r_tick : (unit -> unit) option;
      (** runs inside every wait loop — in-process tests pump their
          servers here *)
  r_local_fallback : bool;
  r_log : string -> unit;
  r_fail : id:string -> failure -> exn;
}

(** 2 slots per executor, 30 s job deadline, 5 s dial budget, 2
    retries, 10 s hedge, quarantine after 3, backoff 0.05 s capped at
    2 s, chaos from [SMLSEP_NET_CHAOS], local fallback on. *)
val default_config : execs:Transport.addr list -> config

type t

(** [create cfg proto] — connections are dialed lazily, on demand. *)
val create : config -> Worker.proto -> t

(** [submit t ~id payload] — queue a job.  Ids must be unique among
    in-flight jobs. *)
val submit : t -> id:string -> string -> unit

(** Jobs submitted and not yet reported. *)
val pending : t -> int

(** Seconds each executor spent holding dispatched jobs (index order
    of [r_execs]; a single local slot when the fleet is degraded). *)
val slot_busy : t -> float array

(** Block until a job completes.  Raises [Invalid_argument] if nothing
    is pending. *)
val next : t -> Worker.completion

(** True once the fleet has fallen back to in-process compilation. *)
val degraded : t -> bool

(** Executors currently quarantined. *)
val quarantined : t -> int

val shutdown : t -> unit
