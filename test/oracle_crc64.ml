(* The byte-at-a-time CRC-64, kept as a differential oracle for
   {!Digestkit.Crc64}: one table lookup per input byte on a boxed
   [Int64] register.  Its values are the specification the sliced
   implementation must reproduce. *)

type t = int64

(* ECMA-182 polynomial, reflected form. *)
let poly = 0xC96C5795D7870F42L

let table =
  let tbl = Array.make 256 0L in
  for n = 0 to 255 do
    let crc = ref (Int64.of_int n) in
    for _ = 0 to 7 do
      if Int64.logand !crc 1L = 1L then
        crc := Int64.logxor (Int64.shift_right_logical !crc 1) poly
      else crc := Int64.shift_right_logical !crc 1
    done;
    tbl.(n) <- !crc
  done;
  tbl

let init = Int64.lognot 0L

let update crc bytes off len =
  if off < 0 || len < 0 || off + len > Bytes.length bytes then
    invalid_arg "Crc64.update";
  let crc = ref crc in
  for i = off to off + len - 1 do
    let idx =
      Int64.to_int (Int64.logand !crc 0xFFL) lxor Char.code (Bytes.get bytes i)
    in
    crc := Int64.logxor (Int64.shift_right_logical !crc 8) table.(idx)
  done;
  !crc

let update_string crc s =
  update crc (Bytes.unsafe_of_string s) 0 (String.length s)

let finish crc = Int64.lognot crc
let of_string s = finish (update_string init s)
let to_hex crc = Printf.sprintf "%016Lx" crc
