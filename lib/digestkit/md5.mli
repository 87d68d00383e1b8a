(** MD5 message digest (RFC 1321).

    The paper hashes exported static environments with a 128-bit CRC; we
    use MD5 as our 128-bit hash (same width, better mixing).  Pids and
    therefore the bin-file format depend on MD5 itself, which the RFC
    1321 test vectors pin; the digest is computed by the OCaml
    runtime's implementation ([Stdlib.Digest]). *)

type ctx

(** A fresh hashing context. *)
val init : unit -> ctx

(** [feed ctx bytes off len] absorbs a slice of [bytes]. *)
val feed : ctx -> bytes -> int -> int -> unit

val feed_string : ctx -> string -> unit

(** [finish ctx] returns the 16-byte digest.  The context must not be
    reused afterwards. *)
val finish : ctx -> string

(** [digest_string s] is the 16-byte MD5 of [s]. *)
val digest_string : string -> string

(** [digest_subbytes b off len] is the 16-byte MD5 of the slice of [b]
    at [off], read in place.  Raises [Invalid_argument] if the slice is
    not within [b]. *)
val digest_subbytes : bytes -> int -> int -> string

(** [hex d] renders a digest in lowercase hexadecimal. *)
val hex : string -> string
