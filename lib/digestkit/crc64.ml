type t = int64

(* ECMA-182 polynomial, reflected form. *)
let poly = 0xC96C5795D7870F42L

(* Slicing-by-8: table [k] advances a byte that still has [k] bytes to
   go through the register, so eight table lookups consume eight input
   bytes at once.  Every entry is stored as two native-int 32-bit
   halves ([lo], [hi]) — table [k] at [k * 256 + byte] — so the loop
   runs on unboxed ints and never allocates an [Int64]. *)
let lo, hi =
  let lo = Array.make (8 * 256) 0 and hi = Array.make (8 * 256) 0 in
  let base = Array.make 256 0L in
  for n = 0 to 255 do
    let crc = ref (Int64.of_int n) in
    for _ = 0 to 7 do
      if Int64.logand !crc 1L = 1L then
        crc := Int64.logxor (Int64.shift_right_logical !crc 1) poly
      else crc := Int64.shift_right_logical !crc 1
    done;
    base.(n) <- !crc
  done;
  for n = 0 to 255 do
    let crc = ref base.(n) in
    for k = 0 to 7 do
      lo.((k * 256) + n) <- Int64.to_int (Int64.logand !crc 0xFFFF_FFFFL);
      hi.((k * 256) + n) <- Int64.to_int (Int64.shift_right_logical !crc 32);
      crc :=
        Int64.logxor
          (Int64.shift_right_logical !crc 8)
          base.(Int64.to_int (Int64.logand !crc 0xFFL))
    done
  done;
  (lo, hi)

let init = Int64.lognot 0L

let update crc bytes off len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Crc64.update";
  let l = ref (Int64.to_int (Int64.logand crc 0xFFFF_FFFFL)) in
  let h = ref (Int64.to_int (Int64.shift_right_logical crc 32)) in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let a = !l lxor (Int32.to_int (Bytes.get_int32_le bytes !i) land 0xFFFF_FFFF) in
    let b =
      !h lxor (Int32.to_int (Bytes.get_int32_le bytes (!i + 4)) land 0xFFFF_FFFF)
    in
    (* table 7 takes the byte with seven more to go: the lowest *)
    let x7 = (7 * 256) + (a land 0xFF)
    and x6 = (6 * 256) + ((a lsr 8) land 0xFF)
    and x5 = (5 * 256) + ((a lsr 16) land 0xFF)
    and x4 = (4 * 256) + (a lsr 24)
    and x3 = (3 * 256) + (b land 0xFF)
    and x2 = (2 * 256) + ((b lsr 8) land 0xFF)
    and x1 = 256 + ((b lsr 16) land 0xFF)
    and x0 = b lsr 24 in
    l :=
      Array.unsafe_get lo x7 lxor Array.unsafe_get lo x6
      lxor Array.unsafe_get lo x5 lxor Array.unsafe_get lo x4
      lxor Array.unsafe_get lo x3 lxor Array.unsafe_get lo x2
      lxor Array.unsafe_get lo x1 lxor Array.unsafe_get lo x0;
    h :=
      Array.unsafe_get hi x7 lxor Array.unsafe_get hi x6
      lxor Array.unsafe_get hi x5 lxor Array.unsafe_get hi x4
      lxor Array.unsafe_get hi x3 lxor Array.unsafe_get hi x2
      lxor Array.unsafe_get hi x1 lxor Array.unsafe_get hi x0;
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    let x = (!l lxor Char.code (Bytes.unsafe_get bytes j)) land 0xFF in
    l := (!l lsr 8) lor ((!h land 0xFF) lsl 24) lxor Array.unsafe_get lo x;
    h := (!h lsr 8) lxor Array.unsafe_get hi x
  done;
  Int64.logor (Int64.shift_left (Int64.of_int !h) 32) (Int64.of_int !l)

let update_string crc s =
  update crc (Bytes.unsafe_of_string s) 0 (String.length s)

let finish crc = Int64.lognot crc
let of_string s = finish (update_string init s)
let to_hex crc = Printf.sprintf "%016Lx" crc
