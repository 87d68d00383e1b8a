module Symbol = Support.Symbol
module Pid = Digestkit.Pid
module L = Lambda

type t = {
  uf_name : string;
  uf_static_pid : Pid.t;
  uf_env : Statics.Types.env;
  uf_import_statics : (string * Pid.t) list;
  uf_name_statics : (Symbol.t * Pid.t) list;
  uf_import_name_statics : (Symbol.t * Pid.t) list;
  uf_codeunit : Link.Codeunit.t;
}

let magic = "SMLSEP.BIN.4"
let static_magic = "SMLSEP.STA.4"

(* a placeholder codeUnit for static-only views of a unit: the statics
   (env, pids) are real, the code is not there yet *)
let no_code =
  { Link.Codeunit.cu_imports = []; cu_exports = []; cu_code = L.Ltuple [] }

let m_bytes_written = Obs.Metrics.counter "pickle.bytes_written"
let m_bytes_read = Obs.Metrics.counter "pickle.bytes_read"
let m_rehydrations = Obs.Metrics.counter "pickle.rehydrations"
let m_decodes = Obs.Metrics.counter "pickle.decodes"
let m_code_decodes = Obs.Metrics.counter "pickle.code_decodes"

(* ------------------------------------------------------------------ *)
(* Lambda terms                                                        *)
(* ------------------------------------------------------------------ *)

let rec write_lambda w (term : L.t) =
  match term with
  | L.Lvar v ->
    Buf.byte w 0;
    Buf.symbol w v
  | L.Lint n ->
    Buf.byte w 1;
    Buf.int w n
  | L.Lstring s ->
    Buf.byte w 2;
    Buf.string w s
  | L.Limport pid ->
    Buf.byte w 3;
    Buf.pid w pid
  | L.Lprim p ->
    Buf.byte w 4;
    Buf.string w (Statics.Prim.name p)
  | L.Lbasisexn name ->
    Buf.byte w 5;
    Buf.symbol w name
  | L.Lfn (v, body) ->
    Buf.byte w 6;
    Buf.symbol w v;
    write_lambda w body
  | L.Lapp (f, x) ->
    Buf.byte w 7;
    write_lambda w f;
    write_lambda w x
  | L.Llet (v, e, body) ->
    Buf.byte w 8;
    Buf.symbol w v;
    write_lambda w e;
    write_lambda w body
  | L.Lfix (binds, body) ->
    Buf.byte w 9;
    Buf.list w
      (fun (f, x, b) ->
        Buf.symbol w f;
        Buf.symbol w x;
        write_lambda w b)
      binds;
    write_lambda w body
  | L.Ltuple parts ->
    Buf.byte w 10;
    Buf.list w (write_lambda w) parts
  | L.Lselect (i, e) ->
    Buf.byte w 11;
    Buf.int w i;
    write_lambda w e
  | L.Lrecord fields ->
    Buf.byte w 12;
    Buf.list w
      (fun (name, v) ->
        Buf.symbol w name;
        write_lambda w v)
      fields
  | L.Lfield (name, e) ->
    Buf.byte w 13;
    Buf.symbol w name;
    write_lambda w e
  | L.Lcon0 tag ->
    Buf.byte w 14;
    Buf.int w tag
  | L.Lcon (tag, e) ->
    Buf.byte w 15;
    Buf.int w tag;
    write_lambda w e
  | L.Lcontag e ->
    Buf.byte w 16;
    write_lambda w e
  | L.Lconarg e ->
    Buf.byte w 17;
    write_lambda w e
  | L.Lnewexn (name, has_arg) ->
    Buf.byte w 18;
    Buf.symbol w name;
    Buf.bool w has_arg
  | L.Lmkexn0 e ->
    Buf.byte w 19;
    write_lambda w e
  | L.Lexnid e ->
    Buf.byte w 20;
    write_lambda w e
  | L.Lexnarg e ->
    Buf.byte w 21;
    write_lambda w e
  | L.Lif (c, t, e) ->
    Buf.byte w 22;
    write_lambda w c;
    write_lambda w t;
    write_lambda w e
  | L.Lraise e ->
    Buf.byte w 23;
    write_lambda w e
  | L.Lhandle (e, v, h) ->
    Buf.byte w 24;
    write_lambda w e;
    Buf.symbol w v;
    write_lambda w h

let rec read_lambda r : L.t =
  match Buf.read_byte r with
  | 0 -> L.Lvar (Buf.read_symbol r)
  | 1 -> L.Lint (Buf.read_int r)
  | 2 -> L.Lstring (Buf.read_string r)
  | 3 -> L.Limport (Buf.read_pid r)
  | 4 -> (
    let name = Buf.read_string r in
    match Statics.Prim.of_name name with
    | Some p -> L.Lprim p
    | None -> raise (Buf.Corrupt ("unknown primitive " ^ name)))
  | 5 -> L.Lbasisexn (Buf.read_symbol r)
  | 6 ->
    let v = Buf.read_symbol r in
    let body = read_lambda r in
    L.Lfn (v, body)
  | 7 ->
    let f = read_lambda r in
    let x = read_lambda r in
    L.Lapp (f, x)
  | 8 ->
    let v = Buf.read_symbol r in
    let e = read_lambda r in
    let body = read_lambda r in
    L.Llet (v, e, body)
  | 9 ->
    let binds =
      Buf.read_list r (fun () ->
          let f = Buf.read_symbol r in
          let x = Buf.read_symbol r in
          let b = read_lambda r in
          (f, x, b))
    in
    let body = read_lambda r in
    L.Lfix (binds, body)
  | 10 -> L.Ltuple (Buf.read_list r (fun () -> read_lambda r))
  | 11 ->
    let i = Buf.read_int r in
    let e = read_lambda r in
    L.Lselect (i, e)
  | 12 ->
    L.Lrecord
      (Buf.read_list r (fun () ->
           let name = Buf.read_symbol r in
           let v = read_lambda r in
           (name, v)))
  | 13 ->
    let name = Buf.read_symbol r in
    let e = read_lambda r in
    L.Lfield (name, e)
  | 14 -> L.Lcon0 (Buf.read_int r)
  | 15 ->
    let tag = Buf.read_int r in
    let e = read_lambda r in
    L.Lcon (tag, e)
  | 16 -> L.Lcontag (read_lambda r)
  | 17 -> L.Lconarg (read_lambda r)
  | 18 ->
    let name = Buf.read_symbol r in
    let has_arg = Buf.read_bool r in
    L.Lnewexn (name, has_arg)
  | 19 -> L.Lmkexn0 (read_lambda r)
  | 20 -> L.Lexnid (read_lambda r)
  | 21 -> L.Lexnarg (read_lambda r)
  | 22 ->
    let c = read_lambda r in
    let t = read_lambda r in
    let e = read_lambda r in
    L.Lif (c, t, e)
  | 23 -> L.Lraise (read_lambda r)
  | 24 ->
    let e = read_lambda r in
    let v = Buf.read_symbol r in
    let h = read_lambda r in
    L.Lhandle (e, v, h)
  | b -> raise (Buf.Corrupt (Printf.sprintf "bad lambda tag %d" b))

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

(* The static part of a unit — everything a dependent needs to compile
   against it (name, pids, own-stamp table, environment) — is pickled
   as one self-contained blob.  A full bin file embeds the blob
   length-prefixed ahead of the codeUnit, so the static view can be
   sliced out of an existing full bin by pure byte surgery
   ({!static_of_full}): no context, no re-pickling. *)
let static_payload ctx uf =
  let w = Buf.writer () in
  Buf.string w uf.uf_name;
  Buf.pid w uf.uf_static_pid;
  Buf.list w
    (fun (name, pid) ->
      Buf.string w name;
      Buf.pid w pid)
    uf.uf_import_statics;
  Buf.list w
    (fun (name, pid) ->
      Buf.symbol w name;
      Buf.pid w pid)
    uf.uf_name_statics;
  Buf.list w
    (fun (name, pid) ->
      Buf.symbol w name;
      Buf.pid w pid)
    uf.uf_import_name_statics;
  (* dehydrated own-stamp table: definitions of every stamp owned by
     one of this unit's bindings (per-binding intrinsic owners) *)
  let token = Serial.exported_token ~self:uf.uf_static_pid in
  let owners = List.map snd uf.uf_name_statics in
  let own =
    List.filter
      (fun stamp ->
        match stamp with
        | Statics.Stamp.External (pid, _) ->
          List.exists (Pid.equal pid) owners
        | Statics.Stamp.Global _ | Statics.Stamp.Local _ -> false)
      (Statics.Realize.reachable_stamps ctx uf.uf_env)
  in
  Buf.list w
    (fun stamp ->
      let owner, idx =
        match stamp with
        | Statics.Stamp.External (owner, idx) -> (owner, idx)
        | Statics.Stamp.Global _ | Statics.Stamp.Local _ -> assert false
      in
      Buf.pid w owner;
      Buf.int w idx;
      match Statics.Context.find ctx stamp with
      | Some info ->
        Buf.byte w 1;
        Serial.write_tycon_info w ctx ~token info
      | None -> Buf.byte w 0)
    own;
  Serial.write_env w ctx ~token ~with_addrs:true uf.uf_env;
  Buf.contents w

(* A parsed bin, not yet registered in any context: the unit and the
   definitions of the stamps it owns.  Immutable — no [Tvar] cell can
   be read out of a bin, since [Serial.read_ty] has no case that builds
   one — so one decode can be rehydrated into any number of sessions,
   on any domain. *)
type decoded = {
  d_unit : t;
  d_own : (Statics.Stamp.t * Statics.Types.tycon_info) list;
}

(* [r] is bounded to the static blob *)
let read_static_payload r =
  let uf_name = Buf.read_string r in
  let uf_static_pid = Buf.read_pid r in
  let uf_import_statics =
    Buf.read_list r (fun () ->
        let name = Buf.read_string r in
        let pid = Buf.read_pid r in
        (name, pid))
  in
  let uf_name_statics =
    Buf.read_list r (fun () ->
        let name = Buf.read_symbol r in
        let pid = Buf.read_pid r in
        (name, pid))
  in
  let uf_import_name_statics =
    Buf.read_list r (fun () ->
        let name = Buf.read_symbol r in
        let pid = Buf.read_pid r in
        (name, pid))
  in
  (* the own-stamp table: definitions are registered by [rehydrate] *)
  let d_own =
    List.filter_map Fun.id
      (Buf.read_list r (fun () ->
           let owner = Buf.read_pid r in
           let idx = Buf.read_int r in
           match Buf.read_byte r with
           | 0 -> None
           | 1 ->
             let info = Serial.read_tycon_info r ~self:uf_static_pid in
             Some (Statics.Stamp.External (owner, idx), info)
           | b -> raise (Buf.Corrupt (Printf.sprintf "bad table tag %d" b))))
  in
  let uf_env = Serial.read_env r ~self:uf_static_pid in
  if not (Buf.at_end r) then raise (Buf.Corrupt "trailing static bytes");
  {
    d_unit =
      {
        uf_name;
        uf_static_pid;
        uf_env;
        uf_import_statics;
        uf_name_statics;
        uf_import_name_statics;
        uf_codeunit = no_code;
      };
    d_own;
  }

(* fixed-width big-endian CRC-64 trailer: readers can locate and
   verify it before parsing a single payload byte *)
let seal w =
  Buf.crc_trailer w;
  Buf.contents w

(* Verify the CRC trailer FIRST: nothing of the payload is parsed —
   let alone registered in a context — before the whole file is known
   to be intact.  Any torn or flipped byte is a checked [Corrupt],
   never a wrong environment.  The payload is then read where it lies,
   in front of the trailer. *)
let unseal data =
  let n = String.length data - 8 in
  if n < 0 then raise (Buf.Corrupt "truncated bin file");
  let crc = Digestkit.Crc64.(finish (update init (Bytes.unsafe_of_string data) 0 n)) in
  if not (Int64.equal (String.get_int64_be data n) crc) then
    raise (Buf.Corrupt "CRC mismatch: bin file is corrupt");
  Buf.reader ~len:n data

(* the magic at [r]: [true] for a full bin, [false] for a static one *)
let read_magic r =
  let m = Buf.read_string r in
  if String.equal m magic then true
  else if String.equal m static_magic then false
  else raise (Buf.Corrupt "bad magic")

let write ctx uf =
  Obs.Trace.span ~cat:"pickle" ~args:[ ("unit", uf.uf_name) ] "pickle.write"
  @@ fun () ->
  let w = Buf.writer () in
  Buf.string w magic;
  Buf.string w (static_payload ctx uf);
  (* the codeUnit *)
  Buf.list w (fun pid -> Buf.pid w pid) uf.uf_codeunit.Link.Codeunit.cu_imports;
  Buf.list w
    (fun (name, pid) ->
      Buf.symbol w name;
      Buf.pid w pid)
    uf.uf_codeunit.Link.Codeunit.cu_exports;
  write_lambda w uf.uf_codeunit.Link.Codeunit.cu_code;
  let bytes = seal w in
  Obs.Metrics.add m_bytes_written (String.length bytes);
  bytes

let static_of_full data =
  let r = unseal data in
  if not (read_magic r) then data
  else begin
    let blob = Buf.sub_reader r in
    let w = Buf.writer () in
    Buf.string w static_magic;
    Buf.blob w blob;
    seal w
  end

(* [r] is past the static blob of a full bin *)
let read_codeunit r =
  Obs.Metrics.incr m_code_decodes;
  let cu_imports = Buf.read_list r (fun () -> Buf.read_pid r) in
  let cu_exports =
    Buf.read_list r (fun () ->
        let name = Buf.read_symbol r in
        let pid = Buf.read_pid r in
        (name, pid))
  in
  let cu_code = read_lambda r in
  if not (Buf.at_end r) then raise (Buf.Corrupt "trailing bytes");
  { Link.Codeunit.cu_imports; cu_exports; cu_code }

(* [decode] and [decode_static] differ only in whether a full bin's
   code section is parsed; a static bin has none, so its bytes must
   end at the blob's *)
let decode_sections ~code data =
  Obs.Trace.span ~cat:"pickle" "pickle.read" @@ fun () ->
  Obs.Metrics.incr m_decodes;
  Obs.Metrics.add m_bytes_read (String.length data);
  let r = unseal data in
  let full = read_magic r in
  let d = read_static_payload (Buf.sub_reader r) in
  if not full then begin
    if not (Buf.at_end r) then raise (Buf.Corrupt "trailing bytes");
    d
  end
  else if code then
    { d with d_unit = { d.d_unit with uf_codeunit = read_codeunit r } }
  else d

let decode data = decode_sections ~code:true data
let decode_static data = decode_sections ~code:false data

let decode_code data =
  Obs.Trace.span ~cat:"pickle" "pickle.read_code" @@ fun () ->
  let r = unseal data in
  let full = read_magic r in
  ignore (Buf.sub_reader r);
  if full then read_codeunit r
  else if Buf.at_end r then no_code
  else raise (Buf.Corrupt "trailing bytes")

let rehydrate ctx d =
  Obs.Metrics.incr m_rehydrations;
  List.iter (fun (stamp, info) -> Statics.Context.register ctx stamp info) d.d_own;
  d.d_unit

let read ctx data = rehydrate ctx (decode data)

let size_of ctx uf = String.length (write ctx uf)
