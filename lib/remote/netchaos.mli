(** Deterministic network fault injection.

    The socket-level sibling of [Vfs.faulty]: a {e plan} names which
    network operation misbehaves and how, an {e injector} counts
    operations per class and fires the faults on schedule.  The
    transport consults the injector at every connect, frame send, and
    frame receive, so a whole build sees an exactly reproducible
    sequence of partitions, resets, stragglers and duplicated replies —
    the chaos harness publishes failing seeds the same way the VFS
    fault tests do.

    Faults model the network, not the peers: they are injected on the
    pool's side of each link, spawned or dialed, and on the cache
    client's, leaving server processes and children untouched. *)

type fault =
  | Refuse  (** connect: the peer actively refuses *)
  | Reset  (** send/recv: the connection is torn down mid-stream *)
  | Black_hole  (** the frame silently vanishes; the peer never sees it *)
  | Delay of float  (** the operation completes late by this many seconds *)
  | Truncate_frame
      (** send: only a prefix of the frame leaves before the connection
          dies — the peer sees a torn stream *)
  | Duplicate_response  (** recv: the frame is delivered twice *)

val fault_name : fault -> string

(** The operation classes the injector counts independently. *)
type op = Connect | Send | Recv

val op_name : op -> string

(** Fire [ce_fault] on the [ce_at]-th operation (1-based) of class
    [ce_op]. *)
type event = { ce_op : op; ce_at : int; ce_fault : fault }

type plan = event list

val pp_plan : Format.formatter -> plan -> unit

(** [seeded_plan ~seed ~ops] — a small deterministic plan (1–4 events
    over roughly [ops] operations) with class-appropriate faults.
    Same seed, same plan. *)
val seeded_plan : seed:int -> ops:int -> plan

(** The environment variable {!of_env} parses ([SMLSEP_NET_CHAOS]). *)
val env_var : string

(** [of_env ()] — the plan [SMLSEP_NET_CHAOS=SEED[:OPS]] asks for
    ([ops] defaults to 64); [None] when unset or unparsable. *)
val of_env : unit -> plan option

(** A counting instance of a plan.  Share one injector across every
    connection of a build so the counters span the whole fabric. *)
type injector

val injector : plan -> injector

(** [fire inj op] — count one operation of class [op]; the fault due
    now, if any. *)
val fire : injector -> op -> fault option

(** Faults fired so far. *)
val fired : injector -> int
