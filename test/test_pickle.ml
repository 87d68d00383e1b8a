(* Byte-level and serialization-layer tests: varints, readers, token
   encoding, environment serialization details. *)

module Buf = Pickle.Buf
module Serial = Pickle.Serial
module Types = Statics.Types
module Stamp = Statics.Stamp
module Symbol = Support.Symbol
module Pid = Digestkit.Pid

let roundtrip_int n =
  let w = Buf.writer () in
  Buf.int w n;
  let r = Buf.reader (Buf.contents w) in
  let back = Buf.read_int r in
  Alcotest.(check int) (Printf.sprintf "varint %d" n) n back;
  Alcotest.(check bool) "fully consumed" true (Buf.at_end r)

let test_varints () =
  List.iter roundtrip_int
    [ 0; 1; -1; 63; 64; -64; -65; 127; 128; 16383; 16384; -100000;
      max_int / 2; -(max_int / 2) ]

let test_strings_options_lists () =
  let w = Buf.writer () in
  Buf.string w "hello";
  Buf.string w "";
  Buf.option w (Buf.string w) (Some "x");
  Buf.option w (Buf.string w) None;
  Buf.list w (Buf.int w) [ 1; 2; 3 ];
  Buf.bool w true;
  let r = Buf.reader (Buf.contents w) in
  Alcotest.(check string) "s1" "hello" (Buf.read_string r);
  Alcotest.(check string) "s2" "" (Buf.read_string r);
  Alcotest.(check (option string)) "some" (Some "x")
    (Buf.read_option r (fun () -> Buf.read_string r));
  Alcotest.(check (option string)) "none" None
    (Buf.read_option r (fun () -> Buf.read_string r));
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (Buf.read_list r (fun () -> Buf.read_int r));
  Alcotest.(check bool) "bool" true (Buf.read_bool r)

let test_truncation_detected () =
  let w = Buf.writer () in
  Buf.string w "some payload";
  let bytes = Buf.contents w in
  let r = Buf.reader (String.sub bytes 0 (String.length bytes - 2)) in
  match Buf.read_string r with
  | exception Buf.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated string must be detected"

let test_bad_tags_detected () =
  let r = Buf.reader "\255\255" in
  (match Buf.read_bool r with
  | exception Buf.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad bool byte");
  let r2 = Buf.reader "\007" in
  match Buf.read_option r2 (fun () -> 0) with
  | exception Buf.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad option byte"

(* ---- incremental frame parsing (the daemon's receive path) ---- *)

let test_frame_pop () =
  let f1 = Pickle.Frame.encode ~kind:17 ~id:"a" ~payload:"one" in
  let f2 = Pickle.Frame.encode ~kind:18 ~id:"b" ~payload:"two" in
  (* nothing buffered, or only part of a header/body: not a frame yet *)
  Alcotest.(check bool) "empty buffer" true (Pickle.Frame.pop "" = None);
  Alcotest.(check bool) "partial header" true
    (Pickle.Frame.pop (String.sub f1 0 4) = None);
  Alcotest.(check bool) "partial body" true
    (Pickle.Frame.pop (String.sub f1 0 (String.length f1 - 1)) = None);
  (* two concatenated frames pop in order, leaving the remainder *)
  (match Pickle.Frame.pop (f1 ^ f2) with
  | Some (m, rest) ->
    Alcotest.(check int) "first kind" 17 m.Pickle.Frame.f_kind;
    Alcotest.(check string) "first id" "a" m.Pickle.Frame.f_id;
    Alcotest.(check string) "first payload" "one" m.Pickle.Frame.f_payload;
    (match Pickle.Frame.pop rest with
    | Some (m2, rest2) ->
      Alcotest.(check int) "second kind" 18 m2.Pickle.Frame.f_kind;
      Alcotest.(check string) "drained" "" rest2
    | None -> Alcotest.fail "second frame must pop")
  | None -> Alcotest.fail "first frame must pop")

let test_frame_pop_corrupt () =
  let f = Pickle.Frame.encode ~kind:17 ~id:"x" ~payload:"payload" in
  (* flip a body byte: the CRC-64 trailer must catch it *)
  let damaged = Bytes.of_string f in
  Bytes.set damaged (String.length f - 9)
    (Char.chr (Char.code (Bytes.get damaged (String.length f - 9)) lxor 1));
  (match Pickle.Frame.pop (Bytes.to_string damaged) with
  | exception Pickle.Buf.Corrupt _ -> ()
  | _ -> Alcotest.fail "flipped byte must be detected");
  (* garbage that cannot even be a header *)
  match Pickle.Frame.pop "XXXXXXXXXXXXXXXX" with
  | exception Pickle.Buf.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic must be detected"

(* one receive buffer holding 10,000 small frames pops them all, in
   order; so does the same stream fed in 7-byte slices and popped as it
   goes; and a writer taking 1,000 bytes at a time drains the send side
   byte-exact *)
let test_frame_stream_many () =
  let module S = Pickle.Frame.Stream in
  let n = 10_000 in
  let frames =
    List.init n (fun i ->
        Pickle.Frame.encode ~kind:(i mod 256) ~id:(string_of_int i)
          ~payload:(String.make (i mod 13) 'p'))
  in
  let wire = String.concat "" frames in
  let check_msg i m =
    if
      m.Pickle.Frame.f_kind <> i mod 256
      || m.Pickle.Frame.f_id <> string_of_int i
      || String.length m.Pickle.Frame.f_payload <> i mod 13
    then Alcotest.failf "frame %d popped out of order or damaged" i
  in
  let s = S.create () in
  S.add_string s wire;
  for i = 0 to n - 1 do
    match S.pop s with
    | Some m -> check_msg i m
    | None -> Alcotest.failf "frame %d missing" i
  done;
  Alcotest.(check bool) "drained" true (S.pop s = None && S.length s = 0);
  let popped = ref 0 in
  let rec feed pos =
    if pos < String.length wire then begin
      let k = min 7 (String.length wire - pos) in
      let got =
        S.fill s ~chunk:k (fun bytes off _ ->
            Bytes.blit_string wire pos bytes off k;
            k)
      in
      Alcotest.(check int) "fill count" k got;
      let rec drain () =
        match S.pop s with
        | Some m ->
          check_msg !popped m;
          incr popped;
          drain ()
        | None -> ()
      in
      drain ();
      feed (pos + k)
    end
  in
  feed 0;
  Alcotest.(check int) "sliced stream: every frame" n !popped;
  Alcotest.(check int) "sliced stream: drained" 0 (S.length s);
  (* the send side: a writer taking a few bytes at a time *)
  S.add_string s wire;
  let sent = Buffer.create (String.length wire) in
  while S.length s > 0 do
    ignore
      (S.drain s (fun bytes off len ->
           let k = min len 1000 in
           Buffer.add_subbytes sent bytes off k;
           k))
  done;
  Alcotest.(check bool) "drained bytes = queued bytes" true
    (String.equal wire (Buffer.contents sent))

(* a socket delivers a frame stream in arbitrary slices: however the
   bytes are chunked, greedy popping must reconstruct exactly the
   frames that were sent, with nothing left over *)
let prop_frame_chunked_stream =
  let gen =
    QCheck.make ~print:(fun (msgs, sizes) ->
        Printf.sprintf "%d msgs, cuts [%s]" (List.length msgs)
          (String.concat ";" (List.map string_of_int sizes)))
      QCheck.Gen.(
        let msg =
          triple (int_range 0 255)
            (string_size ~gen:char (int_range 0 12))
            (string_size ~gen:char (int_range 0 64))
        in
        pair
          (list_size (int_range 1 8) msg)
          (list_size (int_range 1 20) (int_range 1 13)))
  in
  QCheck.Test.make ~name:"frame stream survives arbitrary chunking" ~count:300
    gen
  @@ fun (msgs, sizes) ->
  let stream =
    String.concat ""
      (List.map
         (fun (kind, id, payload) -> Pickle.Frame.encode ~kind ~id ~payload)
         msgs)
  in
  (* slice the stream into chunks, cycling through the cut sizes *)
  let sizes = Array.of_list sizes in
  let chunks = ref [] in
  let off = ref 0 and i = ref 0 in
  while !off < String.length stream do
    let n = min sizes.(!i mod Array.length sizes) (String.length stream - !off) in
    chunks := String.sub stream !off n :: !chunks;
    off := !off + n;
    incr i
  done;
  (* feed chunk by chunk, popping greedily after each arrival *)
  let buffer = ref "" and got = ref [] in
  List.iter
    (fun chunk ->
      buffer := !buffer ^ chunk;
      let rec drain () =
        match Pickle.Frame.pop !buffer with
        | Some (m, rest) ->
          buffer := rest;
          got :=
            (m.Pickle.Frame.f_kind, m.Pickle.Frame.f_id, m.Pickle.Frame.f_payload)
            :: !got;
          drain ()
        | None -> ()
      in
      drain ())
    (List.rev !chunks);
  !buffer = "" && List.rev !got = msgs

let test_frame_truncated_then_completed () =
  let f1 = Pickle.Frame.encode ~kind:32 ~id:"a" ~payload:"first" in
  let f2 = Pickle.Frame.encode ~kind:36 ~id:"b" ~payload:"second" in
  let f3 = Pickle.Frame.encode ~kind:37 ~id:"c" ~payload:"third" in
  (* a whole frame plus a torn tail: the whole one pops, the tail waits *)
  let cut = String.length f2 / 2 in
  let buffer = ref (f1 ^ String.sub f2 0 cut) in
  (match Pickle.Frame.pop !buffer with
  | Some (m, rest) ->
    Alcotest.(check string) "leading frame pops" "first"
      m.Pickle.Frame.f_payload;
    buffer := rest
  | None -> Alcotest.fail "leading frame must pop");
  Alcotest.(check bool) "torn tail is not a frame yet" true
    (Pickle.Frame.pop !buffer = None);
  (* the rest of the torn frame arrives, with another one behind it *)
  buffer := !buffer ^ String.sub f2 cut (String.length f2 - cut) ^ f3;
  (match Pickle.Frame.pop !buffer with
  | Some (m, rest) ->
    Alcotest.(check string) "completed frame decodes" "second"
      m.Pickle.Frame.f_payload;
    buffer := rest
  | None -> Alcotest.fail "completed frame must pop");
  match Pickle.Frame.pop !buffer with
  | Some (m, rest) ->
    Alcotest.(check string) "trailing frame decodes" "third"
      m.Pickle.Frame.f_payload;
    Alcotest.(check string) "stream drained" "" rest
  | None -> Alcotest.fail "trailing frame must pop"

let mk_ctx () =
  let ctx = Statics.Context.create () in
  Statics.Basis.register ctx;
  ctx

(* Build a small exported-shape environment by hand and roundtrip it. *)
let test_env_roundtrip_manual () =
  let ctx = mk_ctx () in
  let self = Pid.intrinsic "fake-unit" in
  let t_stamp = Stamp.External (self, 0) in
  Statics.Context.register ctx t_stamp
    {
      Types.tyc_name = Symbol.intern "t";
      tyc_arity = 1;
      tyc_defn =
        Types.Data
          [
            {
              Types.cd_name = Symbol.intern "Leaf";
              cd_arg = None;
              cd_tag = 0;
              cd_span = 2;
            };
            {
              Types.cd_name = Symbol.intern "Node";
              cd_arg = Some (Types.Tcon (t_stamp, [ Types.Tgen 0 ]));
              cd_tag = 1;
              cd_span = 2;
            };
          ];
    };
  let env =
    Types.empty_env
    |> Types.bind_tycon (Symbol.intern "t") t_stamp
    |> Types.bind_val (Symbol.intern "x")
         {
           Types.vi_scheme =
             { Types.arity = 1; body = Types.Tcon (t_stamp, [ Types.Tgen 0 ]) };
           vi_kind = Types.Vplain;
           vi_addr =
             Types.AdField (Types.AdExtern self, Symbol.intern "x");
         }
  in
  let w = Buf.writer () in
  Serial.write_env w ctx ~token:(Serial.exported_token ~self) ~with_addrs:true
    env;
  let env' = Serial.read_env (Buf.reader (Buf.contents w)) ~self in
  (* the tycon binding survives *)
  (match Symbol.Map.find_opt (Symbol.intern "t") env'.Types.tycons with
  | Some stamp -> Alcotest.(check bool) "t stamp" true (Stamp.equal stamp t_stamp)
  | None -> Alcotest.fail "t lost");
  (* the val's scheme survives structurally *)
  match Symbol.Map.find_opt (Symbol.intern "x") env'.Types.vals with
  | Some info ->
    Alcotest.(check int) "arity" 1 info.Types.vi_scheme.Types.arity;
    Alcotest.(check bool) "scheme equal" true
      (Statics.Unify.equal_scheme ctx info.Types.vi_scheme
         { Types.arity = 1; body = Types.Tcon (t_stamp, [ Types.Tgen 0 ]) })
  | None -> Alcotest.fail "x lost"

let test_unresolved_tyvar_rejected () =
  let ctx = mk_ctx () in
  let env =
    Types.bind_val (Symbol.intern "bad")
      {
        Types.vi_scheme =
          Types.monotype (Statics.Unify.fresh_tyvar ~level:1 ());
        vi_kind = Types.Vplain;
        vi_addr = Types.AdNone;
      }
      Types.empty_env
  in
  let w = Buf.writer () in
  match
    Serial.write_env w ctx
      ~token:(Serial.exported_token ~self:(Pid.intrinsic "u"))
      ~with_addrs:true env
  with
  | exception Support.Diag.Error _ -> ()
  | () -> Alcotest.fail "unresolved unification variable must be rejected"

let test_hash_env_vs_order_of_binding () =
  (* hash is independent of binding insertion order (canonical order) *)
  let ctx = mk_ctx () in
  let vi n =
    {
      Types.vi_scheme = Types.monotype Statics.Basis.int_ty;
      vi_kind = Types.Vplain;
      vi_addr = Types.AdNone;
    }
    |> fun v -> (Symbol.intern n, v)
  in
  let a, va = vi "a" and b, vb = vi "b" and c, vc = vi "c" in
  let env1 =
    Types.empty_env |> Types.bind_val a va |> Types.bind_val b vb
    |> Types.bind_val c vc
  in
  let env2 =
    Types.empty_env |> Types.bind_val c vc |> Types.bind_val a va
    |> Types.bind_val b vb
  in
  Alcotest.(check bool) "insertion order irrelevant" true
    (Pid.equal
       (Pickle.Hashenv.hash_env ctx env1)
       (Pickle.Hashenv.hash_env ctx env2))

let test_unit_pid_depends_on_names () =
  let p = Pid.intrinsic "payload" in
  let one = Pickle.Hashenv.unit_pid [ (Symbol.intern "A", p) ] in
  let other = Pickle.Hashenv.unit_pid [ (Symbol.intern "B", p) ] in
  Alcotest.(check bool) "renaming a module changes the unit pid" false
    (Pid.equal one other)

(* ---- bounded readers and damaged bins ---- *)

(* a length inside a blob that points past the blob's end is damage,
   whatever bytes follow the blob in the enclosing string *)
let test_sub_reader_bounds () =
  (* after a leading byte the blob holds 4 more: a string, a symbol or
     a blob claiming 10, or a 16-byte pid, runs past its end *)
  let w = Buf.writer () in
  Buf.string w "\000\010abc";
  Buf.string w (String.make 64 'x');
  let data = Buf.contents w in
  let overrun what read =
    let r = Buf.reader data in
    let sub = Buf.sub_reader r in
    Alcotest.(check int) "leading byte" 0 (Buf.read_byte sub);
    match read sub with
    | exception Buf.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s read past its blob" what
  in
  overrun "string" (fun r -> ignore (Buf.read_string r));
  overrun "symbol" (fun r -> ignore (Buf.read_symbol r));
  overrun "blob" (fun r -> ignore (Buf.sub_reader r));
  overrun "pid" (fun r -> ignore (Buf.read_pid r));
  (* the enclosing reader skipped the whole blob *)
  let r = Buf.reader data in
  ignore (Buf.sub_reader r);
  Alcotest.(check string) "next field" (String.make 64 'x') (Buf.read_string r);
  Alcotest.(check bool) "at end" true (Buf.at_end r);
  (* a reader over a window of a string stops at the window's end *)
  let r = Buf.reader ~pos:1 ~len:2 "\000\001\002\003" in
  Alcotest.(check int) "first in window" 1 (Buf.read_byte r);
  Alcotest.(check int) "last in window" 2 (Buf.read_byte r);
  Alcotest.(check bool) "window consumed" true (Buf.at_end r);
  (match Buf.read_byte r with
  | exception Buf.Corrupt _ -> ()
  | _ -> Alcotest.fail "read past the window");
  match Buf.reader ~pos:3 ~len:2 "abcd" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a window outside the string must be rejected"

(* one small unit's full bin: a datatype, a structure, a function *)
let small_bin () =
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "small.sml"
    "structure Small = struct datatype t = A | B of int\n\
     fun f x = case x of A => 0 | B n => n + 1 end";
  let mgr = Irm.Driver.create fs in
  ignore (Irm.Driver.build mgr ~policy:Irm.Driver.Cutoff ~sources:[ "small.sml" ]);
  Option.get (fs.Vfs.fs_read "small.sml.bin")

(* every truncation and every single-byte flip of a full bin and of its
   static view is a checked [Corrupt]: never another exception, never
   a unit *)
let test_damaged_bins_corrupt () =
  let full = small_bin () in
  let view = Pickle.Binfile.static_of_full full in
  ignore (Pickle.Binfile.read (mk_ctx ()) full);
  ignore (Pickle.Binfile.read (mk_ctx ()) view);
  let must_corrupt label f data =
    match f data with
    | exception Buf.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "%s: %s instead of Corrupt" label (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: damage went unnoticed" label
  in
  let read data = Pickle.Binfile.read (mk_ctx ()) data in
  List.iter
    (fun (what, bin, readers) ->
      for n = 0 to String.length bin - 1 do
        List.iter
          (fun (how, f) ->
            must_corrupt (Printf.sprintf "%s cut to %d, %s" what n how) f
              (String.sub bin 0 n))
          readers
      done;
      for i = 0 to String.length bin - 1 do
        List.iter
          (fun flip ->
            let damaged = Bytes.of_string bin in
            Bytes.set damaged i (Char.chr (Char.code bin.[i] lxor flip));
            List.iter
              (fun (how, f) ->
                must_corrupt
                  (Printf.sprintf "%s byte %d ^ %d, %s" what i flip how)
                  f (Bytes.to_string damaged))
              readers)
          [ 0x01; 0x80; 0xFF ]
      done)
    [
      ( "full bin",
        full,
        [ ("read", fun d -> ignore (read d));
          ("static_of_full", fun d -> ignore (Pickle.Binfile.static_of_full d));
          ("decode_static", fun d -> ignore (Pickle.Binfile.decode_static d));
          ("decode_code", fun d -> ignore (Pickle.Binfile.decode_code d)) ] );
      ( "static view",
        view,
        [ ("read", fun d -> ignore (read d));
          ("decode_code", fun d -> ignore (Pickle.Binfile.decode_code d)) ] );
    ]

(* ---- byte identity of the bin format ---- *)

(* every bin a serial Cutoff build leaves behind, path and bytes, in
   path order *)
let bins_of_build fs sources =
  let mgr = Irm.Driver.create fs in
  ignore (Irm.Driver.build mgr ~policy:Irm.Driver.Cutoff ~sources);
  fs.Vfs.fs_list ()
  |> List.filter (fun f -> Filename.check_suffix f ".bin")
  |> List.sort String.compare
  |> List.map (fun f -> (f, Option.get (fs.Vfs.fs_read f)))

let miniml_bins () =
  let dir = "../examples/miniml" in
  let fs = Vfs.memory () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".sml" || f = "sources.cm" then
        fs.Vfs.fs_write f
          (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
    (Sys.readdir dir);
  bins_of_build fs (Irm.Group.load fs "sources.cm")

let gen_bins () =
  let fs = Vfs.memory () in
  let project =
    Workload.Gen.create fs
      (Workload.Gen.Random_dag { units = 12; max_deps = 3; seed = 1 })
      Workload.Gen.rich_profile
  in
  bins_of_build fs (Workload.Gen.sources project)

(* The MD5 over every bin of two fixed builds: a rich 12-unit generated
   project and examples/miniml.  Any change to a written byte — layout,
   magic, pid, stamp numbering, CRC — moves it. *)
let test_bins_pinned () =
  let bins = gen_bins () @ miniml_bins () in
  Alcotest.(check int) "bin count" 16 (List.length bins);
  let ctx = Digestkit.Md5.init () in
  List.iter
    (fun (f, bytes) ->
      Digestkit.Md5.feed_string ctx (Printf.sprintf "%s\000%d\000" f (String.length bytes));
      Digestkit.Md5.feed_string ctx bytes)
    bins;
  Alcotest.(check string) "md5 over all bins" "726f52040cdc176a21cc00de17128522"
    (Digestkit.Md5.hex (Digestkit.Md5.finish ctx))

(* ---- decode once, rehydrate per session ---- *)

let counter name = Option.value ~default:0 (Obs.Metrics.find name)

(* [read] is [rehydrate] after [decode]: the decode parses and counts
   the bytes, in no context; each rehydration registers the unit's own
   stamps in one context and parses nothing.  The static part of a
   full bin's decode is the decode of its static view. *)
let test_decode_then_rehydrate () =
  List.iter
    (fun (f, full) ->
      let d0 = counter "pickle.decodes"
      and r0 = counter "pickle.rehydrations"
      and b0 = counter "pickle.bytes_read" in
      let d = Pickle.Binfile.decode full in
      Alcotest.(check (triple int int int))
        (f ^ ": a decode counts one parse of its bytes and no rehydration")
        (1, 0, String.length full)
        ( counter "pickle.decodes" - d0,
          counter "pickle.rehydrations" - r0,
          counter "pickle.bytes_read" - b0 );
      let ctx_a = mk_ctx () and ctx_b = mk_ctx () and ctx_c = mk_ctx () in
      let a = Pickle.Binfile.rehydrate ctx_a d in
      let b = Pickle.Binfile.rehydrate ctx_b d in
      let c = Pickle.Binfile.read ctx_c full in
      Alcotest.(check (pair int int))
        (f ^ ": three rehydrations, two more decodes")
        (3, 2)
        (counter "pickle.rehydrations" - r0, counter "pickle.decodes" - d0);
      Alcotest.(check bool) (f ^ ": one decode, two sessions, one unit") true (a == b);
      Alcotest.(check bool) (f ^ ": read = rehydrate after decode") true (a = c);
      Alcotest.(check (list string))
        (f ^ ": each session registers the same stamps")
        (List.map Stamp.to_string (Statics.Context.stamps ctx_c))
        (List.map Stamp.to_string (Statics.Context.stamps ctx_a));
      let view = Pickle.Binfile.static_of_full full in
      let from_view = Pickle.Binfile.rehydrate (mk_ctx ()) (Pickle.Binfile.decode view) in
      let from_part =
        Pickle.Binfile.rehydrate (mk_ctx ()) (Pickle.Binfile.decode_static full)
      in
      Alcotest.(check bool) (f ^ ": static decode = decode of the static view") true
        (from_view = from_part);
      Alcotest.(check bool) (f ^ ": the static decode carries no code") true
        (from_part.Pickle.Binfile.uf_codeunit == Pickle.Binfile.no_code))
    (gen_bins () @ miniml_bins ())

(* [bytes] with its CRC trailer replaced by a fresh one over [payload]:
   a file any damage check passes *)
let reseal payload =
  let crc =
    Digestkit.Crc64.(
      finish (update init (Bytes.unsafe_of_string payload) 0 (String.length payload)))
  in
  let trailer = Bytes.create 8 in
  Bytes.set_int64_be trailer 0 crc;
  payload ^ Bytes.to_string trailer

let payload_of bin = String.sub bin 0 (String.length bin - 8)

(* A full bin read one section at a time: [decode_static] is the static
   part of [decode] and [decode_code] its codeUnit.  The static decode
   counts as a decode and parses no code; the code decode counts only
   as a code decode. *)
let test_sectioned_decodes () =
  List.iter
    (fun (f, full) ->
      let counts () =
        (counter "pickle.decodes", counter "pickle.code_decodes")
      in
      let delta (d0, c0) =
        let d1, c1 = counts () in
        (d1 - d0, c1 - c0)
      in
      let c = counts () in
      let whole = Pickle.Binfile.decode full in
      Alcotest.(check (pair int int)) (f ^ ": decode parses both sections")
        (1, 1) (delta c);
      let c = counts () in
      let statics = Pickle.Binfile.decode_static full in
      Alcotest.(check (pair int int)) (f ^ ": decode_static parses no code")
        (1, 0) (delta c);
      let c = counts () in
      let code = Pickle.Binfile.decode_code full in
      Alcotest.(check (pair int int)) (f ^ ": decode_code is a code decode")
        (0, 1) (delta c);
      let unit_of d = Pickle.Binfile.rehydrate (mk_ctx ()) d in
      let whole = unit_of whole in
      Alcotest.(check bool) (f ^ ": decode_static = decode without its code") true
        (unit_of statics
        = { whole with Pickle.Binfile.uf_codeunit = Pickle.Binfile.no_code });
      Alcotest.(check bool) (f ^ ": decode_code = the codeUnit of decode") true
        (code = whole.Pickle.Binfile.uf_codeunit);
      Alcotest.(check bool) (f ^ ": a static view has no code") true
        (Pickle.Binfile.decode_code (Pickle.Binfile.static_of_full full)
        == Pickle.Binfile.no_code))
    (gen_bins () @ miniml_bins ())

(* a bin whose CRC is valid but whose code section does not parse:
   its statics decode, and every read of its code is a checked
   [Corrupt] *)
let test_unparseable_code_section () =
  let bad = reseal (payload_of (small_bin ()) ^ "\x00") in
  ignore (Pickle.Binfile.rehydrate (mk_ctx ()) (Pickle.Binfile.decode_static bad));
  List.iter
    (fun (how, f) ->
      match f bad with
      | exception Buf.Corrupt _ -> ()
      | exception e ->
        Alcotest.failf "%s: %s instead of Corrupt" how (Printexc.to_string e)
      | () -> Alcotest.failf "%s: the bad code section went unnoticed" how)
    [
      ("decode", fun d -> ignore (Pickle.Binfile.decode d));
      ("decode_code", fun d -> ignore (Pickle.Binfile.decode_code d));
    ]

let rec ty_has_tvar (ty : Types.ty) =
  match ty with
  | Types.Tvar _ -> true
  | Types.Tgen _ | Types.Terror -> false
  | Types.Tcon (_, args) | Types.Ttuple args -> List.exists ty_has_tvar args
  | Types.Tarrow (a, b) -> ty_has_tvar a || ty_has_tvar b

let condesc_has_tvar (cd : Types.condesc) =
  Option.fold ~none:false ~some:ty_has_tvar cd.Types.cd_arg

let rec env_has_tvar (env : Types.env) =
  Symbol.Map.exists
    (fun _ (vi : Types.val_info) ->
      ty_has_tvar vi.Types.vi_scheme.Types.body
      ||
      match vi.Types.vi_kind with
      | Types.Vcon (_, cd) -> condesc_has_tvar cd
      | Types.Vplain | Types.Vexn _ -> false)
    env.Types.vals
  || Symbol.Map.exists (fun _ s -> env_has_tvar s.Types.str_env) env.Types.strs
  || Symbol.Map.exists (fun _ s -> env_has_tvar s.Types.sig_env) env.Types.sigs
  || Symbol.Map.exists
       (fun _ f ->
         env_has_tvar f.Types.fct_param_sig.Types.sig_env
         || env_has_tvar f.Types.fct_body)
       env.Types.fcts

let info_has_tvar (info : Types.tycon_info) =
  match info.Types.tyc_defn with
  | Types.Abstract -> false
  | Types.Alias scheme -> ty_has_tvar scheme.Types.body
  | Types.Data cds -> List.exists condesc_has_tvar cds

(* The invariant that lets sessions and domains share one decode: a
   decoded environment, and every definition its bin carries, reaches
   no [Tvar] cell — the only mutable part of a type — so nothing
   elaborated against it can write through it. *)
let test_decoded_has_no_tvar () =
  List.iter
    (fun (f, full) ->
      List.iter
        (fun bytes ->
          let ctx = Statics.Context.create () in
          let unit_ = Pickle.Binfile.rehydrate ctx (Pickle.Binfile.decode bytes) in
          Alcotest.(check bool) (f ^ ": no Tvar in the env") false
            (env_has_tvar unit_.Pickle.Binfile.uf_env);
          Alcotest.(check bool) (f ^ ": no Tvar in an own definition") false
            (List.exists
               (fun stamp -> info_has_tvar (Statics.Context.find_exn ctx stamp))
               (Statics.Context.stamps ctx)))
        [ full; Pickle.Binfile.static_of_full full ])
    (gen_bins () @ miniml_bins ())

let suite =
  [
    Alcotest.test_case "varint roundtrips" `Quick test_varints;
    Alcotest.test_case "strings, options, lists" `Quick
      test_strings_options_lists;
    Alcotest.test_case "truncation detected" `Quick test_truncation_detected;
    Alcotest.test_case "frame pop" `Quick test_frame_pop;
    Alcotest.test_case "frame pop corrupt" `Quick test_frame_pop_corrupt;
    QCheck_alcotest.to_alcotest prop_frame_chunked_stream;
    Alcotest.test_case "truncated frame completed by later bytes" `Quick
      test_frame_truncated_then_completed;
    Alcotest.test_case "bad tags detected" `Quick test_bad_tags_detected;
    Alcotest.test_case "manual env roundtrip" `Quick test_env_roundtrip_manual;
    Alcotest.test_case "unresolved tyvars rejected" `Quick
      test_unresolved_tyvar_rejected;
    Alcotest.test_case "hash independent of insertion order" `Quick
      test_hash_env_vs_order_of_binding;
    Alcotest.test_case "unit pid depends on binding names" `Quick
      test_unit_pid_depends_on_names;
    Alcotest.test_case "10,000 frames from one receive buffer" `Quick
      test_frame_stream_many;
    Alcotest.test_case "sub-reader bounds" `Quick test_sub_reader_bounds;
    Alcotest.test_case "damaged bins are Corrupt" `Quick
      test_damaged_bins_corrupt;
    Alcotest.test_case "bins pinned byte for byte" `Quick test_bins_pinned;
    Alcotest.test_case "read = rehydrate after decode" `Quick
      test_decode_then_rehydrate;
    Alcotest.test_case "sectioned decodes = decode" `Quick
      test_sectioned_decodes;
    Alcotest.test_case "an unparseable code section is Corrupt" `Quick
      test_unparseable_code_section;
    Alcotest.test_case "decoded envs hold no Tvar" `Quick
      test_decoded_has_no_tvar;
  ]
