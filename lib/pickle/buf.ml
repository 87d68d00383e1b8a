(* A growable byte store: [buf.[0] .. buf.[len - 1]] are written. *)
type writer = { mutable buf : Bytes.t; mutable len : int }

let writer () = { buf = Bytes.create 1024; len = 0 }

(* room for [n] more bytes *)
let reserve w n =
  if w.len + n > Bytes.length w.buf then begin
    let capacity = ref (2 * Bytes.length w.buf) in
    while w.len + n > !capacity do
      capacity := 2 * !capacity
    done;
    let buf = Bytes.create !capacity in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let byte w b =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (b land 0xFF));
  w.len <- w.len + 1

let raw w s pos n =
  reserve w n;
  Bytes.blit_string s pos w.buf w.len n;
  w.len <- w.len + n

(* unsigned varint: [n]'s 63 bits, so a zigzagged int at or beyond
   ±2^61, which is negative, takes nine bytes like any other *)
let rec uvarint w n =
  if n land lnot 0x7F = 0 then byte w n
  else begin
    byte w (0x80 lor (n land 0x7F));
    uvarint w (n lsr 7)
  end

(* zigzag-encode so small negative ints stay small *)
let int w n = uvarint w ((n lsl 1) lxor (n asr 62))

let string w s =
  uvarint w (String.length s);
  raw w s 0 (String.length s)

let symbol w sym = string w (Support.Symbol.name sym)
let bool w b = byte w (if b then 1 else 0)

let option w f = function
  | None -> byte w 0
  | Some v ->
    byte w 1;
    f v

let list w f items =
  uvarint w (List.length items);
  List.iter f items

let pid w p =
  let s = Digestkit.Pid.to_bytes p in
  raw w s 0 (String.length s)

let contents w = Bytes.sub_string w.buf 0 w.len
let hash_contents w ctx = Digestkit.Md5.feed ctx w.buf 0 w.len

let crc_trailer w =
  let crc = Digestkit.Crc64.(finish (update init w.buf 0 w.len)) in
  reserve w 8;
  Bytes.set_int64_be w.buf w.len crc;
  w.len <- w.len + 8

(* A reader parses [data] in place between [pos] and its end bound
   [stop]: a blob embedded in a larger string is read where it lies. *)
type reader = { data : string; mutable pos : int; stop : int }

exception Corrupt of string

let reader ?(pos = 0) ?len data =
  let len = Option.value len ~default:(String.length data - pos) in
  if pos < 0 || len < 0 || pos > String.length data - len then
    invalid_arg "Buf.reader";
  { data; pos; stop = pos + len }

let read_byte r =
  if r.pos >= r.stop then raise (Corrupt "unexpected end of data");
  let b = Char.code (String.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  b

let read_uvarint r =
  let rec go shift acc =
    let b = read_byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let read_int r =
  let z = read_uvarint r in
  (z lsr 1) lxor (-(z land 1))

(* the length prefix of a string or blob, checked against what is left *)
let read_length r what =
  let n = read_uvarint r in
  if n < 0 || n > r.stop - r.pos then raise (Corrupt ("truncated " ^ what));
  n

let read_string r =
  let n = read_length r "string" in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_symbol r =
  let n = read_length r "symbol" in
  let sym = Support.Symbol.intern_sub r.data r.pos n in
  r.pos <- r.pos + n;
  sym

let blob w r =
  let n = r.stop - r.pos in
  uvarint w n;
  raw w r.data r.pos n

let sub_reader r =
  let n = read_length r "blob" in
  let sub = { data = r.data; pos = r.pos; stop = r.pos + n } in
  r.pos <- r.pos + n;
  sub

let read_bool r =
  match read_byte r with
  | 0 -> false
  | 1 -> true
  | b -> raise (Corrupt (Printf.sprintf "bad bool byte %d" b))

let read_option r f =
  match read_byte r with
  | 0 -> None
  | 1 -> Some (f ())
  | b -> raise (Corrupt (Printf.sprintf "bad option byte %d" b))

let read_list r f =
  let n = read_uvarint r in
  if n < 0 then raise (Corrupt "bad list length");
  List.init n (fun _ -> f ())

let read_pid r =
  if r.pos > r.stop - 16 then raise (Corrupt "truncated pid");
  let s = String.sub r.data r.pos 16 in
  r.pos <- r.pos + 16;
  Digestkit.Pid.of_bytes s

let at_end r = r.pos = r.stop
