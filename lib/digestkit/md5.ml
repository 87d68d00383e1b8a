(* RFC 1321, operating on 32-bit words carried in OCaml ints (we rely on
   63-bit native ints; every word operation re-masks to 32 bits). *)

let mask = 0xFFFFFFFF
let ( &&& ) a b = a land b
let ( ||| ) a b = a lor b
let ( ^^^ ) a b = a lxor b
let lnot32 a = lnot a &&& mask
let add32 a b = (a + b) &&& mask
let rotl32 x n = ((x lsl n) ||| (x lsr (32 - n))) &&& mask

type ctx = {
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
  mutable len : int;  (* total bytes absorbed *)
  block : bytes;  (* 64-byte staging buffer *)
  mutable fill : int;  (* valid bytes in [block] *)
}

let init () =
  {
    a = 0x67452301;
    b = 0xefcdab89;
    c = 0x98badcfe;
    d = 0x10325476;
    len = 0;
    block = Bytes.create 64;
    fill = 0;
  }

(* Per-round shift amounts and sine-table constants, in round order. *)
let s =
  [|
    7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
    5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
    4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
    6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21;
  |]

let k =
  [|
    0xd76aa478; 0xe8c7b756; 0x242070db; 0xc1bdceee; 0xf57c0faf; 0x4787c62a;
    0xa8304613; 0xfd469501; 0x698098d8; 0x8b44f7af; 0xffff5bb1; 0x895cd7be;
    0x6b901122; 0xfd987193; 0xa679438e; 0x49b40821; 0xf61e2562; 0xc040b340;
    0x265e5a51; 0xe9b6c7aa; 0xd62f105d; 0x02441453; 0xd8a1e681; 0xe7d3fbc8;
    0x21e1cde6; 0xc33707d6; 0xf4d50d87; 0x455a14ed; 0xa9e3e905; 0xfcefa3f8;
    0x676f02d9; 0x8d2a4c8a; 0xfffa3942; 0x8771f681; 0x6d9d6122; 0xfde5380c;
    0xa4beea44; 0x4bdecfa9; 0xf6bb4b60; 0xbebfbc70; 0x289b7ec6; 0xeaa127fa;
    0xd4ef3085; 0x04881d05; 0xd9d4d039; 0xe6db99e5; 0x1fa27cf8; 0xc4ac5665;
    0xf4292244; 0x432aff97; 0xab9423a7; 0xfc93a039; 0x655b59c3; 0x8f0ccc92;
    0xffeff47d; 0x85845dd1; 0x6fa87e4f; 0xfe2ce6e0; 0xa3014314; 0x4e0811a1;
    0xf7537e82; 0xbd3af235; 0x2ad7d2bb; 0xeb86d391;
  |]

let word block i =
  let b j = Char.code (Bytes.get block ((i * 4) + j)) in
  b 0 ||| (b 1 lsl 8) ||| (b 2 lsl 16) ||| (b 3 lsl 24)

let compress ctx block =
  let a0 = ctx.a and b0 = ctx.b and c0 = ctx.c and d0 = ctx.d in
  let a = ref a0 and b = ref b0 and c = ref c0 and d = ref d0 in
  for i = 0 to 63 do
    let f, g =
      if i < 16 then (!b &&& !c ||| (lnot32 !b &&& !d), i)
      else if i < 32 then (!d &&& !b ||| (lnot32 !d &&& !c), ((5 * i) + 1) mod 16)
      else if i < 48 then (!b ^^^ !c ^^^ !d, ((3 * i) + 5) mod 16)
      else (!c ^^^ (!b ||| lnot32 !d), 7 * i mod 16)
    in
    let tmp = !d in
    d := !c;
    c := !b;
    b :=
      add32 !b
        (rotl32 (add32 (add32 (add32 !a f) k.(i)) (word block g)) s.(i));
    a := tmp
  done;
  ctx.a <- add32 a0 !a;
  ctx.b <- add32 b0 !b;
  ctx.c <- add32 c0 !c;
  ctx.d <- add32 d0 !d

let feed ctx src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Md5.feed";
  ctx.len <- ctx.len + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled staging block first. *)
  if ctx.fill > 0 then begin
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit src !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress ctx ctx.block;
      ctx.fill <- 0
    end
  end;
  while !remaining >= 64 do
    Bytes.blit src !pos ctx.block 0 64;
    compress ctx ctx.block;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.block ctx.fill !remaining;
    ctx.fill <- ctx.fill + !remaining
  end

let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finish ctx =
  let bit_len = ctx.len * 8 in
  (* Padding: 0x80, zeros to 56 mod 64, then the 64-bit little-endian
     bit length. *)
  let pad_len =
    let r = ctx.len mod 64 in
    if r < 56 then 56 - r else 120 - r
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail (pad_len + i)
      (Char.chr ((bit_len lsr (8 * i)) land 0xFF))
  done;
  feed ctx tail 0 (Bytes.length tail);
  let out = Bytes.create 16 in
  let put i w =
    for j = 0 to 3 do
      Bytes.set out ((i * 4) + j) (Char.chr ((w lsr (8 * j)) land 0xFF))
    done
  in
  put 0 ctx.a;
  put 1 ctx.b;
  put 2 ctx.c;
  put 3 ctx.d;
  Bytes.unsafe_to_string out

let digest_string str =
  let ctx = init () in
  feed_string ctx str;
  finish ctx

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
