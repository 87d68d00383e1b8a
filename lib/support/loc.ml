type pos = { line : int; col : int; offset : int }
type t = { file : string; start_pos : pos; end_pos : pos }

let dummy =
  let p = { line = 0; col = 0; offset = 0 } in
  { file = "<generated>"; start_pos = p; end_pos = p }

let make file start_pos end_pos = { file; start_pos; end_pos }

let merge a b =
  if a == dummy then b
  else if b == dummy then a
  else
    let start_pos =
      if a.start_pos.offset <= b.start_pos.offset then a.start_pos
      else b.start_pos
    in
    let end_pos =
      if a.end_pos.offset >= b.end_pos.offset then a.end_pos else b.end_pos
    in
    { file = a.file; start_pos; end_pos }

let pp ppf loc =
  if loc == dummy then Format.pp_print_string ppf "<generated>"
  else if loc.start_pos.line = loc.end_pos.line then
    Format.fprintf ppf "%s:%d.%d-%d" loc.file loc.start_pos.line
      loc.start_pos.col loc.end_pos.col
  else
    Format.fprintf ppf "%s:%d.%d-%d.%d" loc.file loc.start_pos.line
      loc.start_pos.col loc.end_pos.line loc.end_pos.col

let to_string loc = Format.asprintf "%a" pp loc
