(* repl — the interactive read-eval-print loop, built on the visible
   compiler.  Compiled units can be brought into the session with
   the :use directive:

     $ repl
     - val x = 21 * 2;
     val x = 42 : int
     - :use lib.sml.bin
     - Lib.helper x;

   Input ends at a line whose last non-space character is ';' (the
   semicolon itself is not part of the program text). *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  content

let strip_semi line =
  let line = String.trim line in
  if String.length line > 0 && line.[String.length line - 1] = ';' then
    Some (String.sub line 0 (String.length line - 1))
  else None

let main trace stats =
  Obs.Trace.with_report ~trace
    ~metrics:(if stats then Some Format.err_formatter else None)
  @@ fun () ->
  let repl = Sepcomp.Interactive.create () in
  let dynenv = ref Link.Linker.empty in
  let buffer = Buffer.create 256 in
  let prompt () =
    print_string (if Buffer.length buffer = 0 then "- " else "= ");
    flush stdout
  in
  let handle_input input =
    match Support.Diag.guard (fun () -> Sepcomp.Interactive.eval repl input) with
    | Ok outcome ->
      List.iter prerr_endline outcome.Sepcomp.Interactive.warnings;
      List.iter print_endline outcome.Sepcomp.Interactive.bindings
    | Error d -> prerr_endline (Support.Diag.to_string d)
    | exception Dynamics.Eval.Sml_raise packet ->
      Printf.eprintf "uncaught exception: %s\n"
        (Dynamics.Value.to_string packet)
  in
  let handle_use path =
    match
      Support.Diag.guard (fun () ->
          let unit_ =
            Pickle.Binfile.read (Sepcomp.Interactive.context repl)
              (read_file path)
          in
          dynenv := Sepcomp.Compile.execute unit_ !dynenv;
          Sepcomp.Interactive.use repl unit_ !dynenv;
          unit_)
    with
    | Ok unit_ ->
      Printf.printf "[loaded %s @ %s]\n" unit_.Pickle.Binfile.uf_name
        (Digestkit.Pid.short unit_.Pickle.Binfile.uf_static_pid)
    | Error d -> prerr_endline (Support.Diag.to_string d)
    | exception Sys_error msg -> prerr_endline msg
    | exception Pickle.Buf.Corrupt msg ->
      prerr_endline
        (Support.Diag.to_string
           (Support.Diag.make Support.Diag.Pickle Support.Loc.dummy msg))
  in
  print_endline "MiniSML interactive loop (:use <file.bin> loads a unit, ctrl-D exits)";
  let rec loop () =
    prompt ();
    match input_line stdin with
    | exception End_of_file -> print_newline ()
    | line ->
      let trimmed = String.trim line in
      if Buffer.length buffer = 0 && String.length trimmed > 4
         && String.sub trimmed 0 4 = ":use"
      then begin
        handle_use (String.trim (String.sub trimmed 4 (String.length trimmed - 4)));
        loop ()
      end
      else begin
        (match strip_semi line with
        | Some last ->
          Buffer.add_string buffer last;
          let input = Buffer.contents buffer in
          Buffer.clear buffer;
          if String.trim input <> "" then handle_input input
        | None ->
          Buffer.add_string buffer line;
          Buffer.add_char buffer '\n');
        loop ()
      end
  in
  loop ();
  0

open Cmdliner

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"OUT"
        ~doc:
          "On exit, write a Chrome trace_event JSON file of the \
           session's phase spans to $(docv).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"On exit, print the metric counters to stderr.")

let cmd =
  let doc = "interactive MiniSML session over the visible compiler" in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const main $ trace_arg $ stats_arg)

let () = exit (Cmd.eval' cmd)
