(* smlc — compile a single MiniSML compilation unit to a bin file,
   optionally loading previously compiled bin files as imports, and
   optionally executing the result.

     smlc foo.sml --import lib.sml.bin --run
     smlc foo.sml --cache

   With --cache, the unit's content address (source × import interface
   pids × compiler version) is looked up in the unit cache first; a hit
   writes the cached bin file without compiling, a miss compiles and
   stores the result. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  content

(* atomic: a crash mid-write must never leave a torn bin file under the
   final name (same write-temp/rename protocol as Vfs.real) *)
let write_file path content =
  let tmp = path ^ ".#tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

(* compile in a supervised child process (--workers): the job carries
   the source and the import bins, the child replies with the bin bytes
   — byte-identical to the in-process compile, but a compiler crash or
   hang costs an E0701/E0702 diagnostic instead of the process *)
let compile_supervised ~worker_timeout ~werror ~max_errors ~source_path ~source
    ~import_bins =
  let job =
    {
      Irm.Wire.j_name = source_path;
      j_source = source;
      j_closure = import_bins;
      j_imports = List.map fst import_bins;
      j_collect = true;
      j_werror = werror;
      j_limit = max_errors;
      j_build = 0;
    }
  in
  let pool =
    Remote.Pool.create
      { (Remote.Pool.default_config (Spawn 1)) with timeout_s = worker_timeout }
      (Irm.Wire.proto ())
  in
  Fun.protect ~finally:(fun () -> Remote.Pool.shutdown pool) @@ fun () ->
  Remote.Pool.submit pool ~id:source_path (Irm.Wire.encode_job job);
  match Remote.Pool.next pool with
  | _, Ok payload -> (Irm.Wire.decode_result payload).Irm.Wire.r_bytes
  | _, Error exn -> raise exn

let compile_one diags source_path import_paths run verbose use_cache cache_dir
    trace stats workers worker_timeout werror max_errors =
  if trace <> None then Obs.Trace.enable ();
  let session = Sepcomp.Compile.new_session () in
  (* each import bin is decoded once: the session rehydrates the
     decode, and a supervised compile ships the same view *)
  let import_bins =
    List.map (fun path -> (path, Irm.Wire.view (read_file path))) import_paths
  in
  let imports =
    List.map
      (fun (_, v) -> Sepcomp.Compile.rehydrate session v.Irm.Wire.v_decoded)
      import_bins
  in
  let source = read_file source_path in
  let cache =
    if use_cache then Some (Cache.create ~dir:cache_dir (Vfs.real ~dir:"."))
    else None
  in
  let key =
    Option.map
      (fun _ ->
        Cache.key ~version:Pickle.Binfile.magic ~name:source_path ~source
          ~import_pids:
            (List.map (fun u -> u.Pickle.Binfile.uf_static_pid) imports))
      cache
  in
  let cached =
    match (cache, key) with
    | Some c, Some k -> (
      match Cache.find c k with
      | None -> None
      | Some bytes -> (
        (* a corrupt entry is a miss, never an error *)
        match Sepcomp.Compile.load session bytes with
        | unit_ -> Some (unit_, bytes)
        | exception Pickle.Buf.Corrupt _ ->
          Cache.invalidate c k;
          None))
    | _ -> None
  in
  let unit_, bytes =
    match cached with
    | Some (unit_, bytes) ->
      if verbose then Printf.printf "%s: from cache\n" source_path;
      (unit_, bytes)
    | None ->
      let unit_, bytes =
        if workers then begin
          let bytes =
            compile_supervised ~worker_timeout ~werror ~max_errors
              ~source_path ~source ~import_bins
          in
          (Sepcomp.Compile.load session bytes, bytes)
        end
        else
          let unit_ =
            Sepcomp.Compile.compile ~diags session ~name:source_path ~source
              ~imports
          in
          (unit_, Sepcomp.Compile.save session unit_)
      in
      (match (cache, key) with
      | Some c, Some k -> Cache.store c k bytes
      | _ -> ());
      (unit_, bytes)
  in
  let bin_path = source_path ^ ".bin" in
  write_file bin_path bytes;
  if verbose then begin
    Printf.printf "%s\n" bin_path;
    Printf.printf "  static pid: %s\n"
      (Digestkit.Pid.to_hex unit_.Pickle.Binfile.uf_static_pid);
    List.iter
      (fun (name, pid) ->
        Printf.printf "  export %s @ %s\n"
          (Support.Symbol.name name)
          (Digestkit.Pid.short pid))
      unit_.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports;
    List.iter
      (fun (name, pid) ->
        Printf.printf "  compiled against %s @ %s\n" name
          (Digestkit.Pid.short pid))
      unit_.Pickle.Binfile.uf_import_statics
  end;
  if run then begin
    let dynenv =
      List.fold_left
        (fun dynenv import -> Sepcomp.Compile.execute import dynenv)
        Link.Linker.empty imports
    in
    ignore (Sepcomp.Compile.execute unit_ dynenv)
  end;
  Option.iter
    (fun path ->
      Obs.Trace.write_chrome path;
      Printf.eprintf "trace written to %s (%d spans)\n" path
        (List.length (Obs.Trace.events ())))
    trace;
  if stats then Format.printf "metrics:@.%a" Obs.Metrics.pp ();
  0

(* diagnostics rendering: human-readable with source excerpts on stderr,
   or the machine-readable envelope (schemas/diagnostics.schema.json) on
   stdout.  In json mode the envelope is always printed, even when empty,
   so callers can parse stdout unconditionally. *)
let report_diags source_path error_format ~failed ds =
  match error_format with
  | `Json ->
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("version", Obs.Json.String "smlsep-diag/1");
              ( "failed",
                Obs.Json.List
                  (if failed then [ Obs.Json.String source_path ] else []) );
              ("skipped", Obs.Json.List []);
              ( "diagnostics",
                Obs.Json.List (List.map Irm.Driver.diag_json ds) );
            ]))
  | `Text ->
    let source_of file =
      if Sys.file_exists file then Some (read_file file) else None
    in
    List.iter
      (fun d -> Format.eprintf "%a" (Support.Diag.render ~source_of) d)
      ds

let main source_path import_paths run verbose use_cache cache_dir trace stats
    workers worker_timeout werror max_errors error_format =
  (* the whole compile runs under one collector: the front end recovers
     and every diagnostic of the unit is reported in a single run *)
  let diags =
    Support.Diag.collector ?limit:max_errors ~werror ~unit_name:source_path ()
  in
  match
    Support.Diag.guard_all (fun () ->
        compile_one diags source_path import_paths run verbose use_cache
          cache_dir trace stats workers worker_timeout werror max_errors)
  with
  | Ok code ->
    (* surviving diagnostics are warnings/notes *)
    report_diags source_path error_format ~failed:false
      (Support.Diag.diags diags);
    code
  | Error ds ->
    report_diags source_path error_format ~failed:true ds;
    1
  | exception Pickle.Buf.Corrupt msg ->
    report_diags source_path error_format ~failed:true
      [ Support.Diag.make Support.Diag.Pickle Support.Loc.dummy msg ];
    1
  | exception Dynamics.Eval.Sml_raise packet ->
    Printf.eprintf "uncaught exception: %s\n" (Dynamics.Value.to_string packet);
    1
  | exception Dynamics.Eval.Sml_exit code -> code
  | exception Sys_error msg ->
    prerr_endline msg;
    1
  | exception Remote.Pool.Pool_down msg ->
    Printf.eprintf
      "compile aborted: the worker pool died entirely (%s)\n" msg;
    4

open Cmdliner

let source_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE" ~doc:"MiniSML source file.")

let imports_arg =
  Arg.(
    value & opt_all file []
    & info [ "i"; "import" ] ~docv:"BIN"
        ~doc:"Bin file of an already-compiled unit this one imports. Repeatable.")

let run_arg =
  Arg.(value & flag & info [ "run" ] ~doc:"Execute the unit after compiling it.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print pids and imports.")

let cache_flag_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Look the unit up in the content-addressed unit cache before \
           compiling, and store fresh compiles into it.")

let cache_dir_arg =
  Arg.(
    value & opt string Cache.default_dir
    & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Cache directory.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"OUT"
        ~doc:
          "Write a Chrome trace_event JSON file of the compile's phase \
           spans to $(docv) (open in chrome://tracing or Perfetto).")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print the metric counters.")

let workers_arg =
  Arg.(
    value & flag
    & info [ "workers" ]
        ~doc:
          "Compile in a supervised child process: a compiler crash is \
           reported as $(b,E0701) and a hang is killed at \
           $(b,--worker-timeout) and reported as $(b,E0702), instead of \
           taking the process down.  The bin file is byte-identical to \
           an in-process compile.")

let worker_timeout_arg =
  Arg.(
    value & opt float 30.
    & info [ "worker-timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget for the compile under $(b,--workers) \
           (default 30s).")

let werror_arg =
  Arg.(
    value & flag
    & info [ "warn-error" ]
        ~doc:
          "Promote warnings (nonexhaustive match, redundant rule, …) to \
           errors.")

let max_errors_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-errors" ] ~docv:"N"
        ~doc:"Stop collecting after $(docv) errors (default 64).")

let error_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "error-format" ] ~docv:"FMT"
        ~doc:
          "How to report diagnostics: $(b,text) (human-readable, with \
           source excerpts, on stderr) or $(b,json) (one machine-readable \
           envelope on stdout, schema $(i,schemas/diagnostics.schema.json)).")

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on reported diagnostics (compile, link or runtime errors).";
    Cmd.Exit.info 2 ~doc:"on command-line usage errors.";
    Cmd.Exit.info 3 ~doc:"on a simulated crash (fault injection).";
    Cmd.Exit.info 4
      ~doc:
        "when the worker pool under $(b,--workers) died entirely and \
         the compile was aborted.";
  ]

let cmd =
  let doc = "compile a MiniSML compilation unit (separate compilation)" in
  Cmd.v
    (Cmd.info "smlc" ~doc ~exits)
    Term.(
      const main $ source_arg $ imports_arg $ run_arg $ verbose_arg
      $ cache_flag_arg $ cache_dir_arg $ trace_arg $ stats_arg $ workers_arg
      $ worker_timeout_arg $ werror_arg $ max_errors_arg $ error_format_arg)

(* standardized exit codes (documented under EXIT STATUS in --help):
   cmdliner reports parse errors as Exit.cli_error (124); fold them into
   the documented usage code. *)
let () =
  let code = Cmd.eval' ~term_err:2 cmd in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
