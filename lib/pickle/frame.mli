(** Length-prefixed, CRC-64-trailed message framing: every frame a
    worker link, the remote fabric or the compile daemon exchanges.

    A frame is [magic(4) · length(4, big-endian) · body], where the body
    is a {!Buf}-encoded message — a kind byte, an id string, a payload
    string — followed by the CRC-64 (ECMA-182, the same trailer bin
    files carry) of the encoded message.  The format is pure bytes: this
    module never touches a file descriptor, so the parent and the child
    can drive it over any transport.

    Damage of any sort — a bad magic, an implausible length, a CRC
    mismatch, a truncated body — raises {!Buf.Corrupt}: a torn or
    interleaved stream is a checked protocol error, never a wrong
    message. *)

(** The 4-byte frame magic (["SWP1"]). *)
val magic : string

(** Bytes of the fixed header: magic + body length. *)
val header_size : int

type msg = {
  f_kind : int;  (** message kind (the tag space [Remote.Protocol] declares) *)
  f_id : string;  (** the job this message belongs to (may be empty) *)
  f_payload : string;
}

(** [encode ~kind ~id ~payload] — a complete frame, header included. *)
val encode : kind:int -> id:string -> payload:string -> string

(** [body_length header] — the body length announced by a [header_size]
    prefix.  Raises {!Buf.Corrupt} on a bad magic or an implausible
    length. *)
val body_length : string -> int

(** [decode_body body] — verify the CRC-64 trailer, then decode.
    Raises {!Buf.Corrupt} on a mismatch. *)
val decode_body : string -> msg

(** [pop buffer] — extract the first complete frame from an
    accumulation buffer: [Some (msg, rest)] when a whole frame is
    present, [None] when more bytes are needed.  Raises {!Buf.Corrupt}
    as soon as the prefix is provably damaged (bad magic, implausible
    length, CRC mismatch), so a receiver can drop the peer without
    waiting for more input. *)
val pop : string -> (msg * string) option
