(** The compile job, its result, and their wire forms.

    The paper's factored model makes compiling a unit a pure function
    of [(source, the import closure's static views)] — this module
    holds that job value, the [execute] function every backend runs
    (inline for [Serial]/[Parallel], on a forked child or a remote
    executor for [Pool]), and the {!Pickle.Buf} codecs that move jobs,
    results, and exceptions across the process boundary.  Because
    [execute] is the same function everywhere and the codecs are
    lossless, the [Pool] backend is byte-identical to [Serial] by
    construction. *)

module Diag = Support.Diag

(** A unit's static view: its bytes and their decode.  A compile reads
    only its imports' statenvs, so the manager ships
    {!Pickle.Binfile.static_of_full} of each bin, decoded once per
    distinct bin.  In-process jobs rehydrate [v_decoded] directly, and
    may share it across domains, since a decode is immutable; the wire
    carries only [v_bytes], and {!decode_job} decodes them again on the
    receiving side.  A full bin is accepted too and compiles to the
    same bytes. *)
type view = { v_bytes : string; v_decoded : Pickle.Binfile.decoded }

(** [view bytes] decodes [bytes] ({!Pickle.Binfile.decode}).
    Raises {!Pickle.Buf.Corrupt} on damage. *)
val view : string -> view

(** What [execute] needs to compile one unit without touching any
    shared state. *)
type job = {
  j_name : string;
  j_source : string;
  j_closure : (string * view) list;
      (** (file, static view of its bin), dep order *)
  j_imports : string list;  (** direct dependencies, scope order *)
  j_collect : bool;  (** compile under a diagnostics collector *)
  j_werror : bool;  (** promote warnings to errors *)
  j_limit : int option;  (** collector error limit *)
  j_build : int;  (** the build id, for cross-process trace correlation *)
}

type kind = Recompiled | Loaded | Cache_hit

type result = {
  r_kind : kind;
  r_bytes : string;  (** the unit's (possibly new) bin bytes *)
  r_phases : (string * float) list;
      (** per-phase seconds: [rehydrate], the compile phases ([parse],
          [elaborate], …) and [save]; collected even on untraced builds
          and fed to the profile store *)
}

(** Compile a job in a brand-new session, rehydrating each closure
    view from its decode.  Pure: the resulting bytes are a function of
    (source, closure bytes) alone, identical no matter
    which domain — or which process — ran the job.  Its
    [build.compile_job] span carries a [closure_bytes] arg: the bytes
    the job rehydrated. *)
val execute : job -> result

(** A failure the child could not express as diagnostics (its message
    is the child-side [Printexc.to_string]).  Renders as the bare
    message, so a worker-reported [Stack_overflow] prints exactly as an
    in-process one would. *)
exception Child_failure of string

(** {1 Wire codecs} *)

val encode_job : job -> string
val decode_job : string -> job

val encode_result : result -> string
val decode_result : string -> result

(** Exception transport: {!Diag.Error} and {!Diag.Errors} cross the
    boundary losslessly (dummy locations decode back to the physical
    {!Support.Loc.dummy}, preserving rendering); anything else decodes
    as {!Child_failure}. *)
val encode_exn : exn -> string

val decode_exn : string -> exn

(** The job-peer protocol: [p_handler] decodes a job, runs {!execute},
    and encodes the result; [p_fail] mints the pool's failure
    diagnostics — [E0701] (compiler crash, unit quarantined), [E0702]
    (compile timeout), [E0703] (remote executors unreachable after
    retries) and [E0704] (remote protocol damage). *)
val proto : unit -> Remote.Pool.proto

(** The scheduler codec for the [Pool] backend. *)
val codec : unit -> (job, result) Sched.codec
