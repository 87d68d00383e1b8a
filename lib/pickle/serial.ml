module Diag = Support.Diag
module Pid = Digestkit.Pid
open Statics.Types

type token =
  | TokGlobal of int
  | TokOwn of int
  | TokExtern of Pid.t * int

let numbering ctx env =
  let order = Statics.Realize.reachable_stamps ctx env in
  let table = Statics.Stamp.Table.create 64 in
  let own = ref [] in
  let next = ref 0 in
  List.iter
    (fun stamp ->
      match stamp with
      | Statics.Stamp.Local _ ->
        Statics.Stamp.Table.add table stamp !next;
        incr next;
        own := stamp :: !own
      | Statics.Stamp.Global _ | Statics.Stamp.External _ -> ())
    order;
  let token stamp =
    match stamp with
    | Statics.Stamp.Global n -> TokGlobal n
    | Statics.Stamp.External (pid, idx) -> TokExtern (pid, idx)
    | Statics.Stamp.Local _ -> (
      match Statics.Stamp.Table.find_opt table stamp with
      | Some idx -> TokOwn idx
      | None ->
        (* a stamp outside the canonical traversal would make the hash
           ill-defined; it indicates a compiler bug *)
        invalid_arg
          (Printf.sprintf "Serial.numbering: unreachable stamp %s"
             (Statics.Stamp.to_string stamp)))
  in
  (token, List.rev !own)

let exported_token ~self stamp =
  match stamp with
  | Statics.Stamp.Global n -> TokGlobal n
  | Statics.Stamp.External (pid, idx) ->
    if Pid.equal pid self then TokOwn idx else TokExtern (pid, idx)
  | Statics.Stamp.Local _ ->
    invalid_arg "Serial.exported_token: local stamp in an exported environment"

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let write_token w = function
  | TokGlobal n ->
    Buf.byte w 0;
    Buf.int w n
  | TokOwn i ->
    Buf.byte w 1;
    Buf.int w i
  | TokExtern (pid, idx) ->
    Buf.byte w 2;
    Buf.pid w pid;
    Buf.int w idx

let rec write_ty w ~token ty =
  match repr ty with
  | Tvar _ ->
    Diag.error Diag.Elaborate Support.Loc.dummy
      "unresolved type variable at compilation-unit boundary"
  | Tgen i ->
    Buf.byte w 0;
    Buf.int w i
  | Tcon (stamp, args) ->
    Buf.byte w 1;
    write_token w (token stamp);
    Buf.list w (write_ty w ~token) args
  | Tarrow (a, b) ->
    Buf.byte w 2;
    write_ty w ~token a;
    write_ty w ~token b
  | Ttuple parts ->
    Buf.byte w 3;
    Buf.list w (write_ty w ~token) parts
  | Terror ->
    (* errored units never reach pickling: the collector raises before
       translate.  A Terror here is a compiler bug, not a user error. *)
    Diag.error Diag.Pickle Support.Loc.dummy
      "error type escaped to a compilation-unit boundary"

let write_scheme w ~token scheme =
  Buf.int w scheme.arity;
  write_ty w ~token scheme.body

let write_condesc w ~token cd =
  Buf.symbol w cd.cd_name;
  Buf.option w (write_ty w ~token) cd.cd_arg;
  Buf.int w cd.cd_tag;
  Buf.int w cd.cd_span

let write_tycon_info w _ctx ~token info =
  Buf.symbol w info.tyc_name;
  Buf.int w info.tyc_arity;
  match info.tyc_defn with
  | Abstract -> Buf.byte w 0
  | Alias scheme ->
    Buf.byte w 1;
    write_scheme w ~token scheme
  | Data cds ->
    Buf.byte w 2;
    Buf.list w (write_condesc w ~token) cds

let rec write_addr w addr =
  match addr with
  | AdNone -> Buf.byte w 0
  | AdLvar v ->
    Buf.byte w 1;
    Buf.symbol w v
  | AdExtern pid ->
    Buf.byte w 2;
    Buf.pid w pid
  | AdPrim p ->
    Buf.byte w 3;
    Buf.string w (Statics.Prim.name p)
  | AdBasisExn name ->
    Buf.byte w 4;
    Buf.symbol w name
  | AdField (base, field) ->
    Buf.byte w 5;
    write_addr w base;
    Buf.symbol w field

let write_opt_addr w ~with_addrs addr =
  if with_addrs then write_addr w addr

let rec write_env w ctx ~token ~with_addrs env =
  let wa = write_opt_addr w ~with_addrs in
  fold_components env ~init:()
    ~valf:(fun name info () ->
      Buf.byte w 10;
      Buf.symbol w name;
      write_scheme w ~token info.vi_scheme;
      (match info.vi_kind with
      | Vplain -> Buf.byte w 0
      | Vcon (stamp, cd) ->
        Buf.byte w 1;
        write_token w (token stamp);
        write_condesc w ~token cd
      | Vexn stamp ->
        Buf.byte w 2;
        write_token w (token stamp));
      wa info.vi_addr)
    ~tycf:(fun name stamp () ->
      Buf.byte w 11;
      Buf.symbol w name;
      write_token w (token stamp))
    ~strf:(fun name info () ->
      Buf.byte w 12;
      Buf.symbol w name;
      write_token w (token info.str_stamp);
      write_env w ctx ~token ~with_addrs info.str_env;
      wa info.str_addr)
    ~sigf:(fun name info () ->
      Buf.byte w 13;
      Buf.symbol w name;
      write_token w (token info.sig_stamp);
      write_env w ctx ~token ~with_addrs info.sig_env;
      Buf.list w (fun s -> write_token w (token s)) info.sig_flex)
    ~fctf:(fun name info () ->
      Buf.byte w 14;
      Buf.symbol w name;
      write_token w (token info.fct_stamp);
      Buf.symbol w info.fct_param_name;
      write_token w (token info.fct_param_sig.sig_stamp);
      write_env w ctx ~token ~with_addrs info.fct_param_sig.sig_env;
      Buf.list w (fun s -> write_token w (token s)) info.fct_param_sig.sig_flex;
      Buf.list w (fun s -> write_token w (token s)) info.fct_param_stamps;
      write_env w ctx ~token ~with_addrs info.fct_body;
      Buf.list w (fun s -> write_token w (token s)) info.fct_body_gen;
      wa info.fct_addr);
  (* end-of-environment marker *)
  Buf.byte w 15

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* A stamp token, decoded straight into the stamp it stands for: the
   unit's own objects ([TokOwn]) are owned by [self]. *)
let read_stamp r ~self =
  match Buf.read_byte r with
  | 0 -> Statics.Stamp.Global (Buf.read_int r)
  | 1 -> Statics.Stamp.External (self, Buf.read_int r)
  | 2 ->
    let pid = Buf.read_pid r in
    let idx = Buf.read_int r in
    Statics.Stamp.External (pid, idx)
  | b -> raise (Buf.Corrupt (Printf.sprintf "bad stamp token %d" b))

let rec read_ty r ~self =
  match Buf.read_byte r with
  | 0 -> Tgen (Buf.read_int r)
  | 1 ->
    let stamp = read_stamp r ~self in
    let args = Buf.read_list r (fun () -> read_ty r ~self) in
    Tcon (stamp, args)
  | 2 ->
    let a = read_ty r ~self in
    let b = read_ty r ~self in
    Tarrow (a, b)
  | 3 -> Ttuple (Buf.read_list r (fun () -> read_ty r ~self))
  | b -> raise (Buf.Corrupt (Printf.sprintf "bad type tag %d" b))

let read_scheme r ~self =
  let arity = Buf.read_int r in
  let body = read_ty r ~self in
  { arity; body }

let read_condesc r ~self =
  let cd_name = Buf.read_symbol r in
  let cd_arg = Buf.read_option r (fun () -> read_ty r ~self) in
  let cd_tag = Buf.read_int r in
  let cd_span = Buf.read_int r in
  { cd_name; cd_arg; cd_tag; cd_span }

let read_tycon_info r ~self =
  let tyc_name = Buf.read_symbol r in
  let tyc_arity = Buf.read_int r in
  let tyc_defn =
    match Buf.read_byte r with
    | 0 -> Abstract
    | 1 -> Alias (read_scheme r ~self)
    | 2 -> Data (Buf.read_list r (fun () -> read_condesc r ~self))
    | b -> raise (Buf.Corrupt (Printf.sprintf "bad defn tag %d" b))
  in
  { tyc_name; tyc_arity; tyc_defn }

let rec read_addr r =
  match Buf.read_byte r with
  | 0 -> AdNone
  | 1 -> AdLvar (Buf.read_symbol r)
  | 2 -> AdExtern (Buf.read_pid r)
  | 3 -> (
    let name = Buf.read_string r in
    match Statics.Prim.of_name name with
    | Some p -> AdPrim p
    | None -> raise (Buf.Corrupt ("unknown primitive " ^ name)))
  | 4 -> AdBasisExn (Buf.read_symbol r)
  | 5 ->
    let base = read_addr r in
    let field = Buf.read_symbol r in
    AdField (base, field)
  | b -> raise (Buf.Corrupt (Printf.sprintf "bad addr tag %d" b))

(* The five component maps are accumulated separately and the env
   record is built once, at the end marker: a [bind_*] per binding would
   copy the record every time. *)
let rec read_env r ~self =
  let module M = Support.Symbol.Map in
  let rec loop vals tycons strs sigs fcts =
    match Buf.read_byte r with
    | 10 ->
      let name = Buf.read_symbol r in
      let scheme = read_scheme r ~self in
      let kind =
        match Buf.read_byte r with
        | 0 -> Vplain
        | 1 ->
          let stamp = read_stamp r ~self in
          let cd = read_condesc r ~self in
          Vcon (stamp, cd)
        | 2 -> Vexn (read_stamp r ~self)
        | b -> raise (Buf.Corrupt (Printf.sprintf "bad vkind tag %d" b))
      in
      let addr = read_addr r in
      let info = { vi_scheme = scheme; vi_kind = kind; vi_addr = addr } in
      loop (M.add name info vals) tycons strs sigs fcts
    | 11 ->
      let name = Buf.read_symbol r in
      let stamp = read_stamp r ~self in
      loop vals (M.add name stamp tycons) strs sigs fcts
    | 12 ->
      let name = Buf.read_symbol r in
      let stamp = read_stamp r ~self in
      let sub = read_env r ~self in
      let addr = read_addr r in
      let info = { str_stamp = stamp; str_env = sub; str_addr = addr } in
      loop vals tycons (M.add name info strs) sigs fcts
    | 13 ->
      let name = Buf.read_symbol r in
      let stamp = read_stamp r ~self in
      let sub = read_env r ~self in
      let flex = Buf.read_list r (fun () -> read_stamp r ~self) in
      let info = { sig_stamp = stamp; sig_env = sub; sig_flex = flex } in
      loop vals tycons strs (M.add name info sigs) fcts
    | 14 ->
      let name = Buf.read_symbol r in
      let fct_stamp = read_stamp r ~self in
      let fct_param_name = Buf.read_symbol r in
      let sig_stamp = read_stamp r ~self in
      let sig_env = read_env r ~self in
      let sig_flex = Buf.read_list r (fun () -> read_stamp r ~self) in
      let fct_param_stamps = Buf.read_list r (fun () -> read_stamp r ~self) in
      let fct_body = read_env r ~self in
      let fct_body_gen = Buf.read_list r (fun () -> read_stamp r ~self) in
      let fct_addr = read_addr r in
      let info =
        {
          fct_stamp;
          fct_param_name;
          fct_param_sig = { sig_stamp; sig_env; sig_flex };
          fct_param_stamps;
          fct_body;
          fct_body_gen;
          fct_addr;
        }
      in
      loop vals tycons strs sigs (M.add name info fcts)
    | 15 -> { vals; tycons; strs; sigs; fcts }
    | b -> raise (Buf.Corrupt (Printf.sprintf "bad env tag %d" b))
  in
  loop M.empty M.empty M.empty M.empty M.empty
