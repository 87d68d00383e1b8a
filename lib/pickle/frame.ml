let magic = "SWP1"
let header_size = 8

(* a frame body is the Buf-encoded message plus its 8-byte CRC trailer;
   anything larger than this is a corrupted length field, not a real
   message *)
let max_body = 1 lsl 30

type msg = { f_kind : int; f_id : string; f_payload : string }

let crc_bytes crc =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 crc;
  Bytes.to_string b

let encode ~kind ~id ~payload =
  let w = Buf.writer () in
  Buf.byte w kind;
  Buf.string w id;
  Buf.string w payload;
  let body = Buf.contents w in
  let crc = crc_bytes (Digestkit.Crc64.of_string body) in
  let header = Bytes.create header_size in
  Bytes.blit_string magic 0 header 0 4;
  Bytes.set_int32_be header 4 (Int32.of_int (String.length body + 8));
  Bytes.to_string header ^ body ^ crc

let body_length header =
  if String.length header <> header_size then
    raise (Buf.Corrupt "frame header truncated");
  if not (String.equal (String.sub header 0 4) magic) then
    raise (Buf.Corrupt "bad frame magic");
  let n = Int32.to_int (String.get_int32_be header 4) in
  if n < 8 || n > max_body then
    raise (Buf.Corrupt (Printf.sprintf "implausible frame length %d" n));
  n

let decode_body body =
  let n = String.length body in
  if n < 8 then raise (Buf.Corrupt "frame body truncated");
  let encoded = String.sub body 0 (n - 8) in
  let trailer = String.sub body (n - 8) 8 in
  if
    not (String.equal trailer (crc_bytes (Digestkit.Crc64.of_string encoded)))
  then raise (Buf.Corrupt "frame CRC mismatch");
  let r = Buf.reader encoded in
  let f_kind = Buf.read_byte r in
  let f_id = Buf.read_string r in
  let f_payload = Buf.read_string r in
  { f_kind; f_id; f_payload }

(* incremental extraction from a receive buffer: every connection
   accumulates socket reads into a string and pops complete frames off
   the front *)
let pop buffer =
  let len = String.length buffer in
  if len < header_size then None
  else
    let body_len = body_length (String.sub buffer 0 header_size) in
    if len < header_size + body_len then None
    else
      let body = String.sub buffer header_size body_len in
      let rest =
        String.sub buffer (header_size + body_len)
          (len - header_size - body_len)
      in
      Some (decode_body body, rest)
