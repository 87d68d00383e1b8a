(** Byte-level writer/reader for the bin-file format and canonical
    hashing.  Integers use LEB128-style varints (with zigzag for signed
    values), so the format is machine-independent — the paper's
    requirement that environments be portable across architectures. *)

type writer

val writer : unit -> writer
val byte : writer -> int -> unit

(** signed, zigzag varint *)
val int : writer -> int -> unit

val string : writer -> string -> unit

(** a symbol, by its name: {!read_symbol} reads it back *)
val symbol : writer -> Support.Symbol.t -> unit

val bool : writer -> bool -> unit
val option : writer -> ('a -> unit) -> 'a option -> unit
val list : writer -> ('a -> unit) -> 'a list -> unit
val pid : writer -> Digestkit.Pid.t -> unit
val contents : writer -> string

(** [digest w] is the MD5 of {!contents}, read in place. *)
val digest : writer -> string

(** [crc_trailer w] appends the big-endian CRC-64 of everything written
    so far: the fixed-width trailer that seals bin files and frames. *)
val crc_trailer : writer -> unit

(** A reader parses its bytes where they lie, between a start and an
    end bound: reading never copies the input, only the strings it
    returns. *)
type reader

exception Corrupt of string

(** [reader ?pos ?len s] reads the [len] bytes of [s] at [pos]; [pos]
    defaults to 0 and [len] to the rest of [s].  Raises
    [Invalid_argument] if they are not within [s]. *)
val reader : ?pos:int -> ?len:int -> string -> reader

val read_byte : reader -> int
val read_int : reader -> int
val read_string : reader -> string

(** [read_symbol r] — a string, interned in place
    ({!Support.Symbol.intern_sub}): a name already seen costs no
    allocation. *)
val read_symbol : reader -> Support.Symbol.t

(** [blob w r] writes the bytes [r] has not read yet, length-prefixed as
    {!string} writes them; [r] itself does not move. *)
val blob : writer -> reader -> unit

(** [sub_reader r] — a reader bounded to the length-prefixed blob at
    [r]'s position, which [r] then skips.  Its end bound is the blob's:
    a length inside the blob pointing past it is {!Corrupt}, whatever
    bytes follow the blob. *)
val sub_reader : reader -> reader

val read_bool : reader -> bool
val read_option : reader -> (unit -> 'a) -> 'a option
val read_list : reader -> (unit -> 'a) -> 'a list
val read_pid : reader -> Digestkit.Pid.t

(** [at_end r] — [r] has consumed every byte up to its end bound. *)
val at_end : reader -> bool
