module Diag = Support.Diag
module Loc = Support.Loc
module Buf = Pickle.Buf

type view = { v_bytes : string; v_decoded : Pickle.Binfile.decoded }

let view bytes = { v_bytes = bytes; v_decoded = Pickle.Binfile.decode bytes }

type job = {
  j_name : string;
  j_source : string;
  j_closure : (string * view) list;
  j_imports : string list;
  j_collect : bool;
  j_werror : bool;
  j_limit : int option;
  j_build : int;
}

type kind = Recompiled | Loaded | Cache_hit

type result = {
  r_kind : kind;
  r_bytes : string;
  r_phases : (string * float) list;
}

let manager_error fmt = Diag.error Diag.Manager Loc.dummy fmt

(* [execute] may run on a worker domain or in a forked child.  It
   touches nothing but the job: a brand-new session is rehydrated from
   the closure — the static view of every unit in the import closure,
   since a compile reads only its imports' statenvs, never their code —
   the unit is compiled against its direct imports, and the pickled
   bytes are the result.  Each view arrives decoded (by the manager for
   in-process jobs, by [decode_job] on the far side of a wire), so
   rehydrating it parses nothing; decodes are immutable, so jobs on
   several domains may share one.  Because generated binder names are
   scoped per compile (Symbol.with_fresh_scope) the bytes are a pure
   function of (source, closure bytes) — identical no matter which
   domain, process, or how many, ran the job.  The serial backend runs
   this very function inline, so Serial, Parallel and Pool builds
   agree byte-for-byte by construction.  The span's [closure_bytes] arg
   is the size of the views the job rehydrated. *)
let execute job =
  let closure_bytes =
    List.fold_left
      (fun n (_, v) -> n + String.length v.v_bytes)
      0 job.j_closure
  in
  Obs.Trace.span ~cat:"compile"
    ~args:
      [
        ("unit", job.j_name);
        ("build", string_of_int job.j_build);
        ("closure_bytes", string_of_int closure_bytes);
      ]
    "build.compile_job"
  @@ fun () ->
  (* time the two manager-side segments by hand and collect the compile
     phases ("parse", "elaborate", …) through the phase collector —
     durations flow back in the result even on untraced builds, feeding
     the profile store *)
  let t0 = Unix.gettimeofday () in
  let session = Sepcomp.Compile.new_session () in
  let units = Hashtbl.create 16 in
  List.iter
    (fun (dep, v) ->
      Hashtbl.replace units dep (Sepcomp.Compile.rehydrate session v.v_decoded))
    job.j_closure;
  let imports =
    List.map
      (fun dep ->
        match Hashtbl.find_opt units dep with
        | Some unit_ -> unit_
        | None ->
          manager_error "dependency %s of %s missing from closure" dep
            job.j_name)
      job.j_imports
  in
  let diags =
    if job.j_collect || job.j_werror then
      Some
        (Diag.collector ?limit:job.j_limit ~werror:job.j_werror
           ~unit_name:job.j_name ())
    else None
  in
  let rehydrate_s = Unix.gettimeofday () -. t0 in
  let unit_, phases =
    Obs.Trace.record_phases (fun () ->
        Sepcomp.Compile.compile ?diags session ~name:job.j_name
          ~source:job.j_source ~imports)
  in
  (* the collector also sees the enclosing compile.unit span — drop it,
     it is the sum of the phases, not one of them *)
  let phases =
    List.filter (fun (n, _) -> not (String.equal n "compile.unit")) phases
  in
  let t1 = Unix.gettimeofday () in
  let r_bytes = Sepcomp.Compile.save session unit_ in
  let save_s = Unix.gettimeofday () -. t1 in
  {
    r_kind = Recompiled;
    r_bytes;
    r_phases = (("rehydrate", rehydrate_s) :: phases) @ [ ("save", save_s) ];
  }

exception Child_failure of string

let () =
  Printexc.register_printer (function
    | Child_failure msg -> Some msg
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                         *)
(* ------------------------------------------------------------------ *)

let encode_job job =
  let w = Buf.writer () in
  Buf.string w job.j_name;
  Buf.string w job.j_source;
  Buf.list w
    (fun (dep, v) ->
      Buf.string w dep;
      Buf.string w v.v_bytes)
    job.j_closure;
  Buf.list w (Buf.string w) job.j_imports;
  Buf.bool w job.j_collect;
  Buf.bool w job.j_werror;
  Buf.option w (Buf.int w) job.j_limit;
  Buf.int w job.j_build;
  Buf.contents w

let decode_job payload =
  let r = Buf.reader payload in
  let j_name = Buf.read_string r in
  let j_source = Buf.read_string r in
  let j_closure =
    Buf.read_list r (fun () ->
        let dep = Buf.read_string r in
        (dep, view (Buf.read_string r)))
  in
  let j_imports = Buf.read_list r (fun () -> Buf.read_string r) in
  let j_collect = Buf.read_bool r in
  let j_werror = Buf.read_bool r in
  let j_limit = Buf.read_option r (fun () -> Buf.read_int r) in
  let j_build = Buf.read_int r in
  {
    j_name;
    j_source;
    j_closure;
    j_imports;
    j_collect;
    j_werror;
    j_limit;
    j_build;
  }

let kind_byte = function Recompiled -> 0 | Loaded -> 1 | Cache_hit -> 2

let kind_of_byte = function
  | 0 -> Recompiled
  | 1 -> Loaded
  | 2 -> Cache_hit
  | b -> raise (Buf.Corrupt (Printf.sprintf "unknown result kind %d" b))

let encode_result result =
  let w = Buf.writer () in
  Buf.byte w (kind_byte result.r_kind);
  Buf.string w result.r_bytes;
  (* Buf has no float form: hex float strings ("%h") round-trip exactly *)
  Buf.list w
    (fun (name, s) ->
      Buf.string w name;
      Buf.string w (Printf.sprintf "%h" s))
    result.r_phases;
  Buf.contents w

let decode_result payload =
  let r = Buf.reader payload in
  let r_kind = kind_of_byte (Buf.read_byte r) in
  let r_bytes = Buf.read_string r in
  let r_phases =
    Buf.read_list r (fun () ->
        let name = Buf.read_string r in
        let s = Buf.read_string r in
        match float_of_string_opt s with
        | Some f -> (name, f)
        | None ->
          raise (Buf.Corrupt (Printf.sprintf "bad phase duration %S" s)))
  in
  { r_kind; r_bytes; r_phases }

(* [Diag.Error] the exception shadows [Diag.Error] the severity; the
   annotations let type-directed disambiguation pick the severity *)
let severity_byte (s : Diag.severity) =
  match s with Error -> 0 | Warning -> 1 | Note -> 2

let severity_of_byte b : Diag.severity =
  match b with
  | 0 -> Error
  | 1 -> Warning
  | 2 -> Note
  | b -> raise (Buf.Corrupt (Printf.sprintf "unknown severity %d" b))

let phase_byte = function
  | Diag.Lex -> 0
  | Diag.Parse -> 1
  | Diag.Elaborate -> 2
  | Diag.Translate -> 3
  | Diag.Pickle -> 4
  | Diag.Link -> 5
  | Diag.Execute -> 6
  | Diag.Manager -> 7

let phase_of_byte = function
  | 0 -> Diag.Lex
  | 1 -> Diag.Parse
  | 2 -> Diag.Elaborate
  | 3 -> Diag.Translate
  | 4 -> Diag.Pickle
  | 5 -> Diag.Link
  | 6 -> Diag.Execute
  | 7 -> Diag.Manager
  | b -> raise (Buf.Corrupt (Printf.sprintf "unknown phase %d" b))

let write_pos w (p : Loc.pos) =
  Buf.int w p.Loc.line;
  Buf.int w p.Loc.col;
  Buf.int w p.Loc.offset

let read_pos r =
  let line = Buf.read_int r in
  let col = Buf.read_int r in
  let offset = Buf.read_int r in
  { Loc.line; col; offset }

(* [Diag.pp] distinguishes dummy locations by physical equality, so the
   wire form records dummy-ness explicitly and decodes it back to the
   one true [Loc.dummy] — a round-tripped diagnostic renders exactly as
   the original would have *)
let write_diag w (d : Diag.t) =
  Buf.byte w (severity_byte d.Diag.severity);
  Buf.byte w (phase_byte d.Diag.phase);
  Buf.string w d.Diag.code;
  Buf.bool w (d.Diag.loc == Loc.dummy);
  Buf.string w d.Diag.loc.Loc.file;
  write_pos w d.Diag.loc.Loc.start_pos;
  write_pos w d.Diag.loc.Loc.end_pos;
  Buf.string w d.Diag.message;
  Buf.option w (Buf.string w) d.Diag.unit_name

let read_diag r =
  let severity = severity_of_byte (Buf.read_byte r) in
  let phase = phase_of_byte (Buf.read_byte r) in
  let code = Buf.read_string r in
  let is_dummy = Buf.read_bool r in
  let file = Buf.read_string r in
  let start_pos = read_pos r in
  let end_pos = read_pos r in
  let loc = if is_dummy then Loc.dummy else { Loc.file; start_pos; end_pos } in
  let message = Buf.read_string r in
  let unit_name = Buf.read_option r (fun () -> Buf.read_string r) in
  { Diag.severity; phase; code; loc; message; unit_name }

let encode_exn exn =
  let w = Buf.writer () in
  (match exn with
  | Diag.Error d ->
    Buf.byte w 0;
    write_diag w d
  | Diag.Errors ds ->
    Buf.byte w 1;
    Buf.list w (write_diag w) ds
  | exn ->
    Buf.byte w 2;
    Buf.string w (Printexc.to_string exn));
  Buf.contents w

let decode_exn payload =
  let r = Buf.reader payload in
  match Buf.read_byte r with
  | 0 -> Diag.Error (read_diag r)
  | 1 -> Diag.Errors (Buf.read_list r (fun () -> read_diag r))
  | 2 -> Child_failure (Buf.read_string r)
  | b -> raise (Buf.Corrupt (Printf.sprintf "unknown exception tag %d" b))

(* ------------------------------------------------------------------ *)
(* The job-peer protocol                                               *)
(* ------------------------------------------------------------------ *)

(* one code per failure class the pool reports.  The unit is failed,
   not lost: keep-going builds poison only its cone. *)
let fail_diag ~id failure =
  let code, msg =
    match failure with
    | Remote.Pool.Crashed { attempts; detail } ->
      ( "E0701",
        Printf.sprintf
          "compiler crashed while compiling %s (%s); unit quarantined \
           after %d attempts"
          id detail attempts )
    | Remote.Pool.Timed_out { timeout_s } ->
      ( "E0702",
        Printf.sprintf "compile of %s exceeded its %gs timeout and was killed"
          id timeout_s )
    | Remote.Pool.Unreachable { attempts; detail } ->
      ( "E0703",
        Printf.sprintf
          "remote executors unreachable while compiling %s (%s); gave up \
           after %d attempts"
          id detail attempts )
    | Remote.Pool.Protocol { detail } ->
      ( "E0704",
        Printf.sprintf "remote protocol error while compiling %s: %s" id
          detail )
  in
  Diag.Error (Diag.make ~code ~unit_name:id Diag.Manager Loc.dummy msg)

let proto () =
  {
    Remote.Pool.p_handler =
      (fun ~id:_ payload ->
        (* the far side of a wire decodes the closure itself: its time
           belongs to the job's rehydrate phase *)
        let t0 = Unix.gettimeofday () in
        let job = decode_job payload in
        let decode_s = Unix.gettimeofday () -. t0 in
        let result = execute job in
        encode_result
          {
            result with
            r_phases =
              List.map
                (fun (name, s) ->
                  if String.equal name "rehydrate" then (name, s +. decode_s)
                  else (name, s))
                result.r_phases;
          });
    p_encode_exn = encode_exn;
    p_decode_exn = decode_exn;
    p_fail = fail_diag;
  }

let codec () =
  {
    Sched.c_proto = proto ();
    c_encode_job = encode_job;
    c_decode_result = decode_result;
  }
