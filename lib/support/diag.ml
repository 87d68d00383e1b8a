type severity = Error | Warning | Note

type phase = Lex | Parse | Elaborate | Translate | Pickle | Link | Execute | Manager

type t = {
  severity : severity;
  phase : phase;
  code : string;
  loc : Loc.t;
  message : string;
  unit_name : string option;
}

exception Error of t
exception Errors of t list

let phase_id = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Elaborate -> "elaborate"
  | Translate -> "translate"
  | Pickle -> "pickle"
  | Link -> "link"
  | Execute -> "execute"
  | Manager -> "manager"

let phase_name = function
  | Lex -> "lexical error"
  | Parse -> "syntax error"
  | Elaborate -> "type error"
  | Translate -> "translation error"
  | Pickle -> "pickle error"
  | Link -> "link error"
  | Execute -> "runtime error"
  | Manager -> "compilation manager error"

let severity_name : severity -> string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

(* Stable error codes: one block of the code space per phase, with
   [x00] as the phase's generic code.  Specific diagnostics override
   the generic code at the emission site; the block assignment itself
   is part of the tool's machine-readable interface and must not be
   renumbered. *)
let default_code (severity : severity) phase =
  match severity with
  | Warning -> "W0000"
  | Note -> "N0000"
  | Error -> (
    match phase with
    | Lex -> "E0100"
    | Parse -> "E0200"
    | Elaborate -> "E0300"
    | Translate -> "E0400"
    | Pickle -> "E0500"
    | Link -> "E0600"
    | Execute -> "E0700"
    | Manager -> "E0800")

let make ?(severity = (Error : severity)) ?code ?unit_name phase loc message =
  let code =
    match code with Some c -> c | None -> default_code severity phase
  in
  { severity; phase; code; loc; message; unit_name }

let error phase loc fmt =
  Format.kasprintf
    (fun message -> raise (Error (make phase loc message)))
    fmt

let error_code ~code ?unit_name phase loc fmt =
  Format.kasprintf
    (fun message -> raise (Error (make ~code ?unit_name phase loc message)))
    fmt

let pp ppf d =
  let label =
    match d.severity with
    | Error -> phase_name d.phase
    | Warning -> "warning"
    | Note -> "note"
  in
  (match (d.loc == Loc.dummy, d.unit_name) with
  | true, Some unit_name -> Format.fprintf ppf "%s" unit_name
  | _ -> Format.fprintf ppf "%a" Loc.pp d.loc);
  Format.fprintf ppf ": %s: %s [%s]" label d.message d.code

let to_string d = Format.asprintf "%a" pp d

(* ------------------------------------------------------------------ *)
(* Source excerpts                                                     *)
(* ------------------------------------------------------------------ *)

(* the line of [source] containing [offset], without its newline *)
let line_at source offset =
  let len = String.length source in
  let offset = min (max offset 0) len in
  let start =
    match String.rindex_from_opt source (max 0 (offset - 1)) '\n' with
    | Some i when i < offset -> i + 1
    | Some _ | None -> 0
  in
  let stop =
    match String.index_from_opt source offset '\n' with
    | Some i -> i
    | None -> len
  in
  if stop >= start then String.sub source start (stop - start) else ""

let pp_excerpt ~source ppf d =
  if d.loc != Loc.dummy then begin
    let { Loc.start_pos; end_pos; _ } = d.loc in
    let line = line_at source start_pos.Loc.offset in
    let gutter = string_of_int start_pos.Loc.line in
    let width =
      (* at least one caret, clipped to the excerpted line *)
      if end_pos.Loc.line = start_pos.Loc.line then
        max 1 (end_pos.Loc.col - start_pos.Loc.col)
      else max 1 (String.length line - start_pos.Loc.col)
    in
    let width = max 1 (min width (max 1 (String.length line - start_pos.Loc.col))) in
    Format.fprintf ppf "  %s | %s@." gutter line;
    Format.fprintf ppf "  %s | %s%s@."
      (String.make (String.length gutter) ' ')
      (String.make (min start_pos.Loc.col (String.length line)) ' ')
      (String.make width '^')
  end

let render ?source_of ppf d =
  Format.fprintf ppf "%a@." pp d;
  match source_of with
  | None -> ()
  | Some lookup -> (
    if d.loc != Loc.dummy then
      match lookup d.loc.Loc.file with
      | Some source -> pp_excerpt ~source ppf d
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Collectors                                                          *)
(* ------------------------------------------------------------------ *)

type collector = {
  mutable rev_diags : t list;
  mutable n_errors : int;
  mutable n_warnings : int;
  limit : int;
  werror : bool;
  unit_name : string option;
}

let default_limit = 64

let collector ?(limit = default_limit) ?(werror = false) ?unit_name () =
  {
    rev_diags = [];
    n_errors = 0;
    n_warnings = 0;
    limit = max 1 limit;
    werror;
    unit_name;
  }

let diags c = List.rev c.rev_diags
let error_count c = c.n_errors
let warning_count c = c.n_warnings
let has_errors c = c.n_errors > 0

let too_many c =
  make ~code:"E0001" ?unit_name:c.unit_name Manager Loc.dummy
    (Printf.sprintf "too many errors (%d); giving up on this unit" c.limit)

let emit c d =
  (* --warn-error: promote at collection time, keeping the warning's
     own code so tooling can still identify the finding *)
  let d =
    if c.werror && d.severity = Warning then { d with severity = Error } else d
  in
  let d =
    match d.unit_name with
    | Some _ -> d
    | None -> { d with unit_name = c.unit_name }
  in
  (match d.severity with
  | Error -> c.n_errors <- c.n_errors + 1
  | Warning -> c.n_warnings <- c.n_warnings + 1
  | Note -> ());
  c.rev_diags <- d :: c.rev_diags;
  if d.severity = Error && c.n_errors >= c.limit then begin
    c.rev_diags <- too_many c :: c.rev_diags;
    c.n_errors <- c.n_errors + 1;
    raise (Errors (diags c))
  end

let error_into c phase loc fmt =
  Format.kasprintf
    (fun message -> emit c (make ?unit_name:c.unit_name phase loc message))
    fmt

(* ------------------------------------------------------------------ *)
(* Exception plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let of_exn = function
  | Error d -> Some [ d ]
  | Errors ds -> Some ds
  | _ -> None

let guard f =
  match f () with
  | v -> Ok v
  | exception Error d -> Result.Error d
  | exception Errors (d :: _) -> Result.Error d
  | exception Errors [] ->
    Result.Error (make Manager Loc.dummy "empty diagnostic bundle")

let guard_all f =
  match f () with
  | v -> Ok v
  | exception Error d -> Result.Error [ d ]
  | exception Errors ds -> Result.Error ds
