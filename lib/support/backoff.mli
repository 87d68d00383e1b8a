(** Capped, jittered exponential backoff.

    One policy shared by every retry loop in the tree — the scheduler's
    node-callback retries, the worker pool's crash-restart delays, and
    the remote fabric's redials.  All three need the same shape: delays
    that grow exponentially with the attempt number, saturate at a cap,
    and carry enough jitter that independent agents retrying the same
    flaky resource do not wake in lock-step and collide again.

    A value of this type owns its RNG, so callers with a deterministic
    seed (tests, chaos harnesses) get a reproducible delay sequence
    while production callers default to self-initialised randomness.
    The RNG is made by the first {!delay}, so creating a value is free:
    a retry loop wrapped around every call pays for randomness only
    when something actually retries.
    The module computes delays; sleeping is the caller's business. *)

type t

(** [create ?seed ~base_s ~cap_s ()] — delays start at [base_s] seconds
    and saturate at [cap_s].  Without [seed] the jitter source is
    self-initialised. *)
val create : ?seed:int -> base_s:float -> cap_s:float -> unit -> t

(** [delay t ~attempt] is the suggested sleep before retry number
    [attempt] (0-based): [min cap_s (base_s * 2^min(attempt,16))]
    scaled by a uniform jitter factor in [0.5, 1.5).  A non-positive
    [base_s] yields [0.] — backoff disabled. *)
val delay : t -> attempt:int -> float
