module Symbol = Support.Symbol
module Pid = Digestkit.Pid
open Statics.Types

(* ------------------------------------------------------------------ *)
(* Whole-environment hashing                                           *)
(* ------------------------------------------------------------------ *)

let m_pid_hashes = Obs.Metrics.counter "hash.pids"

let hash_with ctx ~token ~own env =
  Obs.Metrics.incr m_pid_hashes;
  let w = Buf.writer () in
  (* the definitions of the unit's own stamps are part of the interface *)
  Buf.list w
    (fun stamp ->
      match Statics.Context.find ctx stamp with
      | Some info ->
        Buf.byte w 1;
        Serial.write_tycon_info w ctx ~token info
      | None -> Buf.byte w 0)
    own;
  Serial.write_env w ctx ~token ~with_addrs:false env;
  Pid.of_digest (Buf.digest w)

let hash_env ctx env =
  let token, own = Serial.numbering ctx env in
  hash_with ctx ~token ~own env

(* ------------------------------------------------------------------ *)
(* Per-binding identities                                              *)
(* ------------------------------------------------------------------ *)

type export = {
  ex_env : env;
  ex_static_pid : Pid.t;
  ex_exports : (Symbol.t * Pid.t) list;
  ex_name_statics : (Symbol.t * Pid.t) list;
}

(* the top-level bindings of a unit's environment, in canonical order,
   each as a kind tag + singleton environment *)
let top_bindings env =
  let sorted bindings = List.sort (fun (a, _) (b, _) ->
      String.compare (Symbol.name a) (Symbol.name b))
      (Symbol.Map.bindings bindings)
  in
  List.concat
    [
      List.map
        (fun (n, v) -> ("val", n, bind_val n v empty_env))
        (sorted env.vals);
      List.map
        (fun (n, v) -> ("tyc", n, bind_tycon n v empty_env))
        (sorted env.tycons);
      List.map
        (fun (n, v) -> ("str", n, bind_str n v empty_env))
        (sorted env.strs);
      List.map
        (fun (n, v) -> ("sig", n, bind_sig n v empty_env))
        (sorted env.sigs);
      List.map
        (fun (n, v) -> ("fct", n, bind_fct n v empty_env))
        (sorted env.fcts);
    ]

let binding_pid kind name digest =
  Pid.intrinsic
    (String.concat ""
       [ "mod:"; kind; ":"; Symbol.name name; ":"; Pid.to_bytes digest ])

let dyn_of_binding pid = Pid.intrinsic (Pid.to_bytes pid ^ ":dyn")

let unit_pid name_statics =
  let w = Buffer.create 128 in
  Buffer.add_string w "unit:";
  List.iter
    (fun (name, pid) ->
      Buffer.add_string w (Symbol.name name);
      Buffer.add_string w (Pid.to_bytes pid))
    name_statics;
  Pid.intrinsic (Buffer.contents w)

(* Hash one binding's singleton environment.  [claim] maps stamps owned
   by earlier bindings (or already assigned in this one) to their final
   identity; stamps first reached here are alpha-numbered and appended
   to [claim] afterwards by the caller. *)
let hash_binding ctx ~claim (kind, name, senv) =
  let reachable = Statics.Realize.reachable_stamps ctx senv in
  let own_new = ref [] in
  let alpha = Statics.Stamp.Table.create 16 in
  List.iter
    (fun stamp ->
      match stamp with
      | Statics.Stamp.Local _
        when (not (Statics.Stamp.Table.mem claim stamp))
             && not (Statics.Stamp.Table.mem alpha stamp) ->
        Statics.Stamp.Table.add alpha stamp (List.length !own_new);
        own_new := stamp :: !own_new
      | Statics.Stamp.Local _ | Statics.Stamp.Global _ | Statics.Stamp.External _ -> ())
    reachable;
  let own_new = List.rev !own_new in
  let token stamp =
    match stamp with
    | Statics.Stamp.Global n -> Serial.TokGlobal n
    | Statics.Stamp.External (pid, idx) -> Serial.TokExtern (pid, idx)
    | Statics.Stamp.Local _ -> (
      match Statics.Stamp.Table.find_opt alpha stamp with
      | Some idx -> Serial.TokOwn idx
      | None -> (
        match Statics.Stamp.Table.find_opt claim stamp with
        | Some (owner, idx) -> Serial.TokExtern (owner, idx)
        | None ->
          invalid_arg
            (Printf.sprintf "Hashenv: stamp %s escapes binding %s"
               (Statics.Stamp.to_string stamp) (Symbol.name name))))
  in
  let w = Buf.writer () in
  Buf.string w kind;
  Buf.string w (Symbol.name name);
  let digest_body = hash_with ctx ~token ~own:own_new senv in
  Buf.pid w digest_body;
  let digest = Pid.of_digest (Buf.digest w) in
  (binding_pid kind name digest, own_new)

let check_distinct_names bindings =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (kind, name, _) ->
      match Hashtbl.find_opt seen (Symbol.name name) with
      | Some other_kind when other_kind <> kind ->
        Support.Diag.error Support.Diag.Elaborate Support.Loc.dummy
          "a compilation unit may not export both a %s and a %s named %a"
          other_kind kind Symbol.pp name
      | _ -> Hashtbl.replace seen (Symbol.name name) kind)
    bindings

let export ctx env =
  let bindings = top_bindings env in
  check_distinct_names bindings;
  (* assign per-binding pids and stamp ownership, in canonical order *)
  let claim : (Pid.t * int) Statics.Stamp.Table.t = Statics.Stamp.Table.create 64 in
  let name_statics =
    List.map
      (fun binding ->
        let pid, own_new = hash_binding ctx ~claim binding in
        List.iteri
          (fun idx stamp -> Statics.Stamp.Table.add claim stamp (pid, idx))
          own_new;
        let _, name, _ = binding in
        (name, pid))
      bindings
  in
  let static_pid = unit_pid name_statics in
  (* rebind owned stamps to their intrinsic identities *)
  let rz =
    Statics.Stamp.Table.fold
      (fun old_stamp (owner, idx) rz ->
        let new_stamp = Statics.Stamp.External (owner, idx) in
        match Statics.Context.find ctx old_stamp with
        | Some info ->
          Statics.Realize.add_tycon_rename rz old_stamp ~arity:info.tyc_arity
            new_stamp
        | None -> Statics.Realize.add_stamp_rename rz old_stamp new_stamp)
      claim Statics.Realize.empty
  in
  Statics.Stamp.Table.iter
    (fun old_stamp (owner, idx) ->
      match Statics.Context.find ctx old_stamp with
      | Some info ->
        Statics.Context.register ctx
          (Statics.Stamp.External (owner, idx))
          (Statics.Realize.subst_tycon_info ctx rz info)
      | None -> ())
    claim;
  let renamed = Statics.Realize.subst_env ctx rz env in
  (* rebase top-level structures/functors onto their dynamic pids *)
  let exports = ref [] in
  let dyn_for name = dyn_of_binding (List.assoc name name_statics) in
  let strs =
    Symbol.Map.mapi
      (fun name info ->
        let pid = dyn_for name in
        exports := (name, pid) :: !exports;
        {
          info with
          str_addr = AdExtern pid;
          str_env = env_with_root_access (AdExtern pid) info.str_env;
        })
      renamed.strs
  in
  let fcts =
    Symbol.Map.mapi
      (fun name info ->
        let pid = dyn_for name in
        exports := (name, pid) :: !exports;
        { info with fct_addr = AdExtern pid })
      renamed.fcts
  in
  let exports =
    List.sort
      (fun (a, _) (b, _) -> String.compare (Symbol.name a) (Symbol.name b))
      !exports
  in
  {
    ex_env = { renamed with strs; fcts };
    ex_static_pid = static_pid;
    ex_exports = exports;
    ex_name_statics = name_statics;
  }

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let verify ctx ~name_statics env =
  let bindings = top_bindings env in
  let claimed = List.map snd name_statics in
  let is_claimed pid = List.exists (Pid.equal pid) claimed in
  (* replay the export numbering over the already-exported stamps *)
  let seen = Statics.Stamp.Table.create 64 in
  let ok = ref true in
  List.iter
    (fun ((kind, name, senv) as _binding) ->
      let reachable = Statics.Realize.reachable_stamps ctx senv in
      let alpha = Statics.Stamp.Table.create 16 in
      let own_new = ref [] in
      List.iter
        (fun stamp ->
          match stamp with
          | Statics.Stamp.External (pid, _)
            when is_claimed pid
                 && (not (Statics.Stamp.Table.mem seen stamp))
                 && not (Statics.Stamp.Table.mem alpha stamp) ->
            Statics.Stamp.Table.add alpha stamp (List.length !own_new);
            own_new := stamp :: !own_new
          | Statics.Stamp.External _ | Statics.Stamp.Global _ | Statics.Stamp.Local _ -> ())
        reachable;
      let own_new = List.rev !own_new in
      let token stamp =
        match stamp with
        | Statics.Stamp.Global n -> Serial.TokGlobal n
        | Statics.Stamp.Local _ -> Serial.TokExtern (Pid.intrinsic "local", 0)
        | Statics.Stamp.External (pid, idx) -> (
          match Statics.Stamp.Table.find_opt alpha stamp with
          | Some own_idx -> Serial.TokOwn own_idx
          | None -> Serial.TokExtern (pid, idx))
      in
      let w = Buf.writer () in
      Buf.string w kind;
      Buf.string w (Symbol.name name);
      let digest_body = hash_with ctx ~token ~own:own_new senv in
      Buf.pid w digest_body;
      let recomputed = binding_pid kind name (Pid.of_digest (Buf.digest w)) in
      List.iter (fun stamp -> Statics.Stamp.Table.replace seen stamp ()) own_new;
      match List.assoc_opt name name_statics with
      | Some claimed_pid when Pid.equal claimed_pid recomputed -> ()
      | Some _ | None -> ok := false)
    bindings;
  if !ok then Some (unit_pid name_statics) else None
