(** The compile-server wire protocol.

    Requests and responses travel as {!Pickle.Frame} messages — the
    same CRC-64-trailed framing the worker links use — over a Unix
    domain socket, served by the fabric's reactor ({!Remote.Netsrv})
    and dialed through its transport ({!Remote.Transport}).
    {!k_hello} and {!k_error} are the fabric's own
    ({!Remote.Protocol}), since the reactor gates the handshake and
    answers damage; the request kinds (17–19) are disjoint from the
    fabric's (32–45), so a frame aimed at the wrong peer is an
    immediate protocol error, not a misread.

    Conversation shape: the client opens with a {!k_hello} frame whose
    payload is {!version}; the daemon answers in kind (a mismatch gets
    {!k_error} and a close).  Each request then goes out as one
    {!k_request} frame with a client-chosen id; the daemon replies with
    zero or more {!k_diag} frames (streamed diagnostic envelopes) and
    exactly one {!k_response} frame, all echoing the request id — so a
    client may pipeline requests and match responses as they
    interleave.  {!k_error} frames carry a human-readable reason for
    protocol-level failures. *)

(** Protocol version, exchanged at HELLO: ["smlsep-daemon/5"] (v2
    added the hot-swap requests [Swap] and [Epochs] and the epoch
    fields in the status envelope; v3 moved HELLO and errors to the
    fabric's shared tags; v4 served every [Run] from the live epoch and
    dropped [hot_swap], [swaps.impl] and [pins] from the envelopes; v5
    dropped the [Swap] and [Epochs] requests (tags 6 and 7) and, per
    group in the status envelope, [epoch], [epochs] and [swaps], which
    became [runs: {executed, replayed}]). *)
val version : string

(** {2 Frame kinds} *)

val k_hello : int
val k_request : int
val k_response : int
val k_diag : int
val k_error : int

(** {2 Where a daemon lives}

    Paths are relative to the project root; the state directory name is
    deliberately short — Unix socket paths are limited to ~100 bytes. *)

val default_state_dir : string

val socket_path : dir:string -> state_dir:string -> string
val pid_path : dir:string -> state_dir:string -> string
val log_path : dir:string -> state_dir:string -> string

(** {2 Requests} *)

type build_opts = {
  b_group : string;  (** group file, relative to the daemon's root *)
  b_policy : string;  (** [cutoff], [timestamp] or [selective] *)
  b_jobs : int;
  b_cache : bool;
  b_keep_going : bool;
  b_werror : bool;
  b_max_errors : int option;
  b_error_json : bool;  (** diagnostics as the [smlsep-diag/1] envelope *)
  b_schedule : string;  (** [auto], [wavefront] or [critical-path] *)
}

type request =
  | Build of build_opts
  | Run of build_opts
      (** build, then execute the group, or answer with the response of
          the last [Run] whose link order and bins were the same;
          program output in [r_out] *)
  | Explain of { e_unit : string; e_json : bool }
  | Profile of { p_json : bool; p_top : int }
  | Status  (** daemon self-description, always JSON *)
  | Shutdown

(** The same record the in-process renderers return, so a front end
    prints a daemon's answer and its own alike. *)
type response = Irm.Introspect.rendered = {
  r_code : int;  (** the exit code the client should exit with *)
  r_out : string;  (** bytes for the client's stdout *)
  r_err : string;  (** bytes for the client's stderr *)
}

(** Codecs for the frame payloads.  Decoders raise {!Pickle.Buf.Corrupt}
    on damage or an unknown tag. *)

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response
