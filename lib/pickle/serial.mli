(** Canonical serialization of static environments.

    One traversal, two clients (section 4 and 5 of the paper share it):

    - the {e hasher} serializes with local stamps alpha-converted to
      their first-encounter index and without runtime addresses, and
      digests the bytes into the unit's intrinsic pid;
    - the {e pickler} serializes an exported environment (whose own
      stamps are [External(self, idx)]) together with the definitions
      of the stamps it owns; references to other units' stamps become
      stubs (owner pid + index) resolved against the context at
      rehydration.

    Unification variables must not remain in a serialized environment;
    encountering one raises {!Support.Diag.Error} (an unresolved
    top-level type). *)

(** How a stamp is written. *)
type token =
  | TokGlobal of int
  | TokOwn of int  (** this unit's own object, by canonical index *)
  | TokExtern of Digestkit.Pid.t * int  (** stub into another unit *)

(** [numbering ctx env] — canonical first-encounter indices for every
    [Local] stamp reachable from [env].  The returned list is the own
    stamps in index order. *)
val numbering :
  Statics.Context.t -> Statics.Types.env -> (Statics.Stamp.t -> token) * Statics.Stamp.t list

(** Token mapping for an already-exported environment: own stamps are
    the [External]s owned by [self]. *)
val exported_token : self:Digestkit.Pid.t -> Statics.Stamp.t -> token

(** [write_env w ctx ~token ~with_addrs env] *)
val write_env :
  Buf.writer ->
  Statics.Context.t ->
  token:(Statics.Stamp.t -> token) ->
  with_addrs:bool ->
  Statics.Types.env ->
  unit

(** [write_tycon_info w ctx ~token info] *)
val write_tycon_info :
  Buf.writer ->
  Statics.Context.t ->
  token:(Statics.Stamp.t -> token) ->
  Statics.Types.tycon_info ->
  unit

(** [read_env r ~self] — rebuild an environment pickled with
    {!exported_token}[ ~self]: each token decodes straight into its
    stamp, [TokOwn i] into [External (self, i)]. *)
val read_env : Buf.reader -> self:Digestkit.Pid.t -> Statics.Types.env

val read_tycon_info :
  Buf.reader -> self:Digestkit.Pid.t -> Statics.Types.tycon_info
