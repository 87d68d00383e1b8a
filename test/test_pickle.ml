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
  let resolve = function
    | Serial.TokGlobal n -> Stamp.Global n
    | Serial.TokOwn i -> Stamp.External (self, i)
    | Serial.TokExtern (p, i) -> Stamp.External (p, i)
  in
  let env' = Serial.read_env (Buf.reader (Buf.contents w)) ~resolve in
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
  ]
