(* The runtime's MD5 ([Stdlib.Digest]).  A context gathers what it is
   fed and digests it whole at [finish]. *)

type ctx = Buffer.t

let init () = Buffer.create 256

let feed = Buffer.add_subbytes
let feed_string = Buffer.add_string
let finish ctx = Digest.string (Buffer.contents ctx)
let digest_string = Digest.string
let digest_subbytes = Digest.subbytes

let hex_digits = "0123456789abcdef"

let hex digest =
  let n = String.length digest in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get digest i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string out
