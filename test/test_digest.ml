(* Digest substrate: MD5 against RFC 1321 vectors, CRC-64 properties,
   pid behaviour. *)

let md5_hex s = Digestkit.Md5.hex (Digestkit.Md5.digest_string s)

let rfc1321_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_md5_vectors () =
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string) ("md5 of " ^ input) expect (md5_hex input))
    rfc1321_vectors

let test_md5_incremental () =
  (* Feeding in arbitrary chunk sizes must agree with one-shot hashing. *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let whole = Digestkit.Md5.digest_string data in
  List.iter
    (fun chunk ->
      let ctx = Digestkit.Md5.init () in
      let i = ref 0 in
      while !i < String.length data do
        let n = min chunk (String.length data - !i) in
        Digestkit.Md5.feed_string ctx (String.sub data !i n);
        i := !i + n
      done;
      Alcotest.(check string)
        (Printf.sprintf "chunked by %d" chunk)
        (Digestkit.Md5.hex whole)
        (Digestkit.Md5.hex (Digestkit.Md5.finish ctx)))
    [ 1; 3; 63; 64; 65; 127; 1000 ]

let test_md5_padding_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding boundaries exercise
     both padding branches. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let again = md5_hex s in
      Alcotest.(check string) (Printf.sprintf "len %d stable" n) again
        (md5_hex s);
      Alcotest.(check int) "digest width" 32 (String.length again))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 121 ]

let test_crc64_known () =
  (* CRC-64/XZ ("GO-ECMA") check value for "123456789". *)
  Alcotest.(check string)
    "crc64 check vector" "995dc9bbdf1939fa"
    (Digestkit.Crc64.to_hex (Digestkit.Crc64.of_string "123456789"))

let test_crc64_incremental () =
  let data = "the quick brown fox jumps over the lazy dog" in
  let one = Digestkit.Crc64.of_string data in
  let split =
    let c = Digestkit.Crc64.update_string Digestkit.Crc64.init "the quick " in
    let c = Digestkit.Crc64.update_string c "brown fox jumps" in
    let c = Digestkit.Crc64.update_string c " over the lazy dog" in
    Digestkit.Crc64.finish c
  in
  Alcotest.(check string)
    "incremental = one-shot"
    (Digestkit.Crc64.to_hex one)
    (Digestkit.Crc64.to_hex split)

let test_pid_roundtrip () =
  let p = Digestkit.Pid.intrinsic "some static environment" in
  let p' = Digestkit.Pid.of_bytes (Digestkit.Pid.to_bytes p) in
  Alcotest.(check bool) "bytes roundtrip" true (Digestkit.Pid.equal p p');
  Alcotest.(check int) "hex width" 32 (String.length (Digestkit.Pid.to_hex p))

let test_pid_fresh_distinct () =
  let n = 1000 in
  let seen = Hashtbl.create n in
  for _ = 1 to n do
    let p = Digestkit.Pid.fresh () in
    Alcotest.(check bool) "fresh pid unseen" false
      (Hashtbl.mem seen (Digestkit.Pid.to_bytes p));
    Hashtbl.add seen (Digestkit.Pid.to_bytes p) ()
  done

let test_pid_intrinsic_deterministic () =
  let a = Digestkit.Pid.intrinsic "payload" in
  let b = Digestkit.Pid.intrinsic "payload" in
  let c = Digestkit.Pid.intrinsic "payload2" in
  Alcotest.(check bool) "same payload, same pid" true (Digestkit.Pid.equal a b);
  Alcotest.(check bool) "different payload, different pid" false
    (Digestkit.Pid.equal a c)

let test_pid_truncation () =
  let p = Digestkit.Pid.intrinsic "x" in
  let v8 = Digestkit.Pid.truncated_bits p 8 in
  let v16 = Digestkit.Pid.truncated_bits p 16 in
  Alcotest.(check bool) "8-bit range" true (v8 >= 0 && v8 < 256);
  Alcotest.(check bool) "16-bit range" true (v16 >= 0 && v16 < 65536);
  Alcotest.(check int) "low bits agree" (v16 land 0xFF) v8

let qcheck_md5_avalanche =
  QCheck.Test.make ~count:200 ~name:"md5: single-byte change alters digest"
    QCheck.(pair (string_of_size Gen.(1 -- 80)) small_nat)
    (fun (s, i) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s in
      let s' =
        String.mapi
          (fun j c -> if j = i then Char.chr ((Char.code c + 1) land 0xFF) else c)
          s
      in
      not (String.equal (Digestkit.Md5.digest_string s) (Digestkit.Md5.digest_string s')))

(* a writer's bytes digested where they lie equal the digest of a copy,
   across the writer's growth from its first 1 KiB *)
let test_buf_digest_in_place () =
  let w = Pickle.Buf.writer () in
  for i = 0 to 3000 do
    Alcotest.(check string)
      (Printf.sprintf "after %d writes" i)
      (Digestkit.Md5.digest_string (Pickle.Buf.contents w))
      (Pickle.Buf.digest w);
    Pickle.Buf.int w (i * 7919)
  done;
  let b = Bytes.of_string "xxabcxx" in
  Alcotest.(check string) "a slice" (Digestkit.Md5.digest_string "abc")
    (Digestkit.Md5.digest_subbytes b 2 3);
  List.iter
    (fun (off, len) ->
      match Digestkit.Md5.digest_subbytes b off len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "slice (%d, %d) must be rejected" off len)
    [ (-1, 1); (0, -1); (0, 8); (5, 3); (max_int, 1) ]

(* stamps as the unifier and the context tables see them: equality is
   exactly [compare = 0], and equal stamps hash alike *)
let qcheck_stamp_kernels =
  let module Stamp = Statics.Stamp in
  let pids = Array.init 3 (fun i -> Digestkit.Pid.intrinsic (string_of_int i)) in
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Stamp.Global n) (0 -- 8);
          map (fun n -> Stamp.Local n) (0 -- 8);
          map2 (fun p i -> Stamp.External (pids.(p), i)) (0 -- 2) (0 -- 8);
        ])
  in
  QCheck.Test.make ~count:1000 ~name:"stamp: equal = (compare = 0), hash respects equal"
    (QCheck.make ~print:(fun (a, b) -> Stamp.to_string a ^ " " ^ Stamp.to_string b)
       (QCheck.Gen.pair gen gen))
    (fun (a, b) ->
      Stamp.equal a b = (Stamp.compare a b = 0)
      && ((not (Stamp.equal a b)) || Stamp.hash a = Stamp.hash b))

let qcheck_crc64_append =
  QCheck.Test.make ~count:200 ~name:"crc64: streaming equals one-shot"
    QCheck.(pair (string_of_size Gen.(0 -- 60)) (string_of_size Gen.(0 -- 60)))
    (fun (a, b) ->
      let one = Digestkit.Crc64.of_string (a ^ b) in
      let two =
        Digestkit.Crc64.finish
          (Digestkit.Crc64.update_string
             (Digestkit.Crc64.update_string Digestkit.Crc64.init a)
             b)
      in
      Int64.equal one two)

(* ---- the sliced CRC-64 against the byte-at-a-time oracle ---- *)

let qcheck_crc64_oracle =
  QCheck.Test.make ~count:500 ~name:"crc64: sliced = byte-at-a-time oracle"
    QCheck.(pair (string_of_size Gen.(0 -- 300)) int64)
    (fun (s, seed) ->
      Int64.equal
        (Oracle_crc64.of_string s)
        (Digestkit.Crc64.of_string s)
      && Int64.equal
           (Oracle_crc64.update_string seed s)
           (Digestkit.Crc64.update_string seed s))

let test_crc64_every_slice () =
  let data = Bytes.init 200 (fun i -> Char.chr ((i * 131 + 7) land 0xFF)) in
  for off = 0 to 200 do
    for len = 0 to 200 - off do
      let want = Oracle_crc64.(finish (update init data off len)) in
      let got = Digestkit.Crc64.(finish (update init data off len)) in
      if not (Int64.equal want got) then
        Alcotest.failf "slice (%d, %d): oracle %Lx, sliced %Lx" off len want got
    done
  done;
  List.iter
    (fun (off, len) ->
      match Digestkit.Crc64.update Digestkit.Crc64.init data off len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "slice (%d, %d) out of range must be rejected" off len)
    [ (-1, 1); (0, -1); (0, 201); (200, 1); (195, 8); (max_int, 8) ]

let test_crc64_every_split () =
  let data = String.init 200 (fun i -> Char.chr ((i * 37 + 11) land 0xFF)) in
  let whole = Oracle_crc64.of_string data in
  for cut = 0 to String.length data do
    let a = String.sub data 0 cut
    and b = String.sub data cut (String.length data - cut) in
    let split =
      Digestkit.Crc64.(finish (update_string (update_string init a) b))
    in
    if not (Int64.equal whole split) then
      Alcotest.failf "split at %d: oracle %Lx, sliced %Lx" cut whole split
  done

(* the table-driven hex equals the stdlib's ([Digest.to_hex], which
   takes exactly 16 bytes) on every byte value and on random strings;
   [Pid.short] is the first 8 digits of [Pid.to_hex] *)
let test_hex_matches_stdlib () =
  let byte_hex c = String.sub (Digest.to_hex (String.make 16 c)) 0 2 in
  for b = 0 to 255 do
    let c = Char.chr b in
    Alcotest.(check string) (Printf.sprintf "byte %d" b) (byte_hex c)
      (Digestkit.Md5.hex (String.make 1 c))
  done;
  Alcotest.(check string) "empty" "" (Digestkit.Md5.hex "");
  let rs = Random.State.make [| 0x4e7 |] in
  let random len = String.init len (fun _ -> Char.chr (Random.State.int rs 256)) in
  for _ = 1 to 200 do
    let d = random 16 in
    Alcotest.(check string) "16 random bytes" (Digest.to_hex d)
      (Digestkit.Md5.hex d);
    Alcotest.(check string) "short" (String.sub (Digest.to_hex d) 0 8)
      (Digestkit.Pid.short (Digestkit.Pid.of_digest d))
  done;
  for len = 1 to 64 do
    let s = random len in
    let want = String.concat "" (List.init len (fun i -> byte_hex s.[i])) in
    Alcotest.(check string) (Printf.sprintf "length %d" len) want
      (Digestkit.Md5.hex s)
  done

let suite =
  [
    Alcotest.test_case "md5 rfc1321 vectors" `Quick test_md5_vectors;
    Alcotest.test_case "md5 incremental feeding" `Quick test_md5_incremental;
    Alcotest.test_case "md5 padding boundaries" `Quick test_md5_padding_boundaries;
    Alcotest.test_case "crc64 check vector" `Quick test_crc64_known;
    Alcotest.test_case "crc64 incremental" `Quick test_crc64_incremental;
    Alcotest.test_case "pid bytes roundtrip" `Quick test_pid_roundtrip;
    Alcotest.test_case "fresh pids distinct" `Quick test_pid_fresh_distinct;
    Alcotest.test_case "intrinsic pids deterministic" `Quick
      test_pid_intrinsic_deterministic;
    Alcotest.test_case "pid truncation" `Quick test_pid_truncation;
    QCheck_alcotest.to_alcotest qcheck_md5_avalanche;
    QCheck_alcotest.to_alcotest qcheck_crc64_append;
    QCheck_alcotest.to_alcotest qcheck_crc64_oracle;
    Alcotest.test_case "crc64 every slice of 200 bytes" `Quick
      test_crc64_every_slice;
    Alcotest.test_case "crc64 split at every position" `Quick
      test_crc64_every_split;
    Alcotest.test_case "hex = Digest.to_hex" `Quick test_hex_matches_stdlib;
    Alcotest.test_case "md5 of a Buf slice in place" `Quick test_buf_digest_in_place;
    QCheck_alcotest.to_alcotest qcheck_stamp_kernels;
  ]
