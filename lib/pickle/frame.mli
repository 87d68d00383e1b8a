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

(** [pop_at bytes ~pos ~len] — the first complete frame among the [len]
    bytes at [pos]: [Some (msg, used)], where [used] counts the frame's
    bytes, or [None] when more bytes are needed.  Raises {!Buf.Corrupt}
    as soon as the prefix is provably damaged (bad magic, implausible
    length, CRC mismatch), so a receiver can drop the peer without
    waiting for more input.  Only the frame itself is read or copied. *)
val pop_at : bytes -> pos:int -> len:int -> (msg * int) option

(** [pop buffer] — {!pop_at} over a whole string: [Some (msg, rest)]
    when a whole frame is present.  It copies the rest, so a connection
    accumulates its input in a {!Stream} instead. *)
val pop : string -> (msg * string) option

(** A connection's receive or send queue: bytes are appended at the back
    and taken off the front without copying what stays, so a stream of
    frames costs time linear in its bytes, however it is split. *)
module Stream : sig
  type t

  val create : unit -> t

  (** Bytes queued. *)
  val length : t -> int

  val clear : t -> unit
  val add_string : t -> string -> unit

  (** [pop s] — take the first complete frame off the front, as
      {!pop_at}. *)
  val pop : t -> msg option

  (** [fill s ~chunk read] — append what [read bytes off len] (a
      [Unix.read], say) stores, offering it room for [chunk] bytes;
      returns [read]'s count.  An exception from [read] leaves [s] as
      it was. *)
  val fill : t -> chunk:int -> (bytes -> int -> int -> int) -> int

  (** [drain s write] — offer every queued byte to [write bytes off len]
      (a [Unix.write], say) and drop the count it returns off the front;
      returns that count.  An exception from [write] leaves [s] as it
      was. *)
  val drain : t -> (bytes -> int -> int -> int) -> int
end
