let magic = "SWP1"
let header_size = 8

(* a frame body is the Buf-encoded message plus its 8-byte CRC trailer;
   anything larger than this is a corrupted length field, not a real
   message *)
let max_body = 1 lsl 30

type msg = { f_kind : int; f_id : string; f_payload : string }

let encode ~kind ~id ~payload =
  let w = Buf.writer () in
  Buf.byte w kind;
  Buf.string w id;
  Buf.string w payload;
  Buf.crc_trailer w;
  let body = Buf.contents w in
  let header = Bytes.create header_size in
  Bytes.blit_string magic 0 header 0 4;
  Bytes.set_int32_be header 4 (Int32.of_int (String.length body));
  Bytes.to_string header ^ body

let check_length n =
  if n < 8 || n > max_body then
    raise (Buf.Corrupt (Printf.sprintf "implausible frame length %d" n));
  n

let body_length header =
  if String.length header <> header_size then
    raise (Buf.Corrupt "frame header truncated");
  if not (String.equal (String.sub header 0 4) magic) then
    raise (Buf.Corrupt "bad frame magic");
  check_length (Int32.to_int (String.get_int32_be header 4))

(* the message [n] bytes at [pos] encode, behind their CRC trailer,
   read where it lies: only the id and the payload are copied out.
   [bytes] is not modified while the reader is alive. *)
let decode_at bytes pos n =
  let encoded = n - 8 in
  let crc = Digestkit.Crc64.(finish (update init bytes pos encoded)) in
  if not (Int64.equal crc (Bytes.get_int64_be bytes (pos + encoded))) then
    raise (Buf.Corrupt "frame CRC mismatch");
  let r = Buf.reader ~pos ~len:encoded (Bytes.unsafe_to_string bytes) in
  let f_kind = Buf.read_byte r in
  let f_id = Buf.read_string r in
  let f_payload = Buf.read_string r in
  { f_kind; f_id; f_payload }

let decode_body body =
  let n = String.length body in
  if n < 8 then raise (Buf.Corrupt "frame body truncated");
  decode_at (Bytes.unsafe_of_string body) 0 n

let pop_at bytes ~pos ~len =
  if len < header_size then None
  else begin
    for i = 0 to 3 do
      if Bytes.get bytes (pos + i) <> magic.[i] then
        raise (Buf.Corrupt "bad frame magic")
    done;
    let body_len =
      check_length (Int32.to_int (Bytes.get_int32_be bytes (pos + 4)))
    in
    if len < header_size + body_len then None
    else
      Some (decode_at bytes (pos + header_size) body_len, header_size + body_len)
  end

let pop buffer =
  let len = String.length buffer in
  match pop_at (Bytes.unsafe_of_string buffer) ~pos:0 ~len with
  | None -> None
  | Some (msg, used) ->
    Some (msg, String.sub buffer used (len - used))

(* A byte queue: live bytes are [bytes.[first] .. bytes.[last - 1]].
   Appending compacts or doubles the store; popping a frame only moves
   [first], so a receiver's cost is linear in the bytes it receives. *)
module Stream = struct
  type t = { mutable bytes : Bytes.t; mutable first : int; mutable last : int }

  let create () = { bytes = Bytes.create 4096; first = 0; last = 0 }
  let length s = s.last - s.first

  (* an emptied queue gives back a store a large frame grew *)
  let clear s =
    if Bytes.length s.bytes > 1 lsl 20 then s.bytes <- Bytes.create 4096;
    s.first <- 0;
    s.last <- 0

  (* room for [n] more bytes at the end *)
  let reserve s n =
    let live = length s in
    if s.last + n > Bytes.length s.bytes then begin
      let capacity = ref (Bytes.length s.bytes) in
      while live + n > !capacity / 2 do
        capacity := 2 * !capacity
      done;
      let target =
        if !capacity > Bytes.length s.bytes then Bytes.create !capacity
        else s.bytes
      in
      Bytes.blit s.bytes s.first target 0 live;
      s.bytes <- target;
      s.first <- 0;
      s.last <- live
    end

  let add_string s str =
    let n = String.length str in
    reserve s n;
    Bytes.blit_string str 0 s.bytes s.last n;
    s.last <- s.last + n

  let consume s n =
    s.first <- s.first + n;
    if s.first = s.last then clear s

  let pop s =
    match pop_at s.bytes ~pos:s.first ~len:(length s) with
    | None -> None
    | Some (msg, used) ->
      consume s used;
      Some msg

  let fill s ~chunk read =
    reserve s chunk;
    let n = read s.bytes s.last chunk in
    s.last <- s.last + n;
    n

  let drain s write =
    let n = write s.bytes s.first (length s) in
    consume s n;
    n
end
