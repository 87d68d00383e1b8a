module Loc = Support.Loc
module Diag = Support.Diag

(* The token stream in flat arrays, in blocks of [block] tokens: token
   [i] is [toks.(b).(k)] with [b = i / block] and [k = i mod block], and
   [spans.(b)] holds two ints for it, at [2k] its start and end offsets
   and at [2k+1] its line and start column, each pair packed into one
   int.  No token spans a newline, so its end column is its start column
   plus its length.  A block is at most 256 words, so it is allocated in
   the minor heap: one array for a whole file's tokens would go straight
   to the major heap, only to become garbage when the parse ends.  A
   [Loc.t] is only built when the parser asks for one. *)
let block_bits = 7
let block = 1 lsl block_bits

(* offsets, lines and columns stay below 2^31 *)
let pack hi lo = (hi lsl 31) lor lo
let high packed = packed lsr 31
let low packed = packed land ((1 lsl 31) - 1)

type t = {
  file : string;
  toks : Token.t array array;
  spans : int array array;
  count : int;  (** tokens stored, EOF last *)
  mutable pos : int;
}

(* The scanner: an offset into the source, the current line and the
   offset its first character has, and the growing output arrays. *)
type scanner = {
  file : string;
  src : string;
  len : int;
  diags : Diag.collector option;
  mutable offset : int;
  mutable line : int;
  mutable bol : int;
  mutable out_toks : Token.t array array;
  mutable out_spans : int array array;
  mutable out_count : int;
}

let pos_at sc offset = { Loc.line = sc.line; col = offset - sc.bol; offset }
let here sc = pos_at sc sc.offset

let lex_error sc fmt =
  let pos = here sc in
  Diag.error Diag.Lex (Loc.make sc.file pos pos) fmt

(* step over one character, which may be a newline *)
let advance sc =
  if sc.src.[sc.offset] = '\n' then begin
    sc.line <- sc.line + 1;
    sc.bol <- sc.offset + 1
  end;
  sc.offset <- sc.offset + 1

let push sc tok start =
  let n = sc.out_count in
  let b = n lsr block_bits and k = n land (block - 1) in
  if k = 0 then begin
    if b = Array.length sc.out_toks then begin
      let grow dir = Array.append dir (Array.make (Array.length dir) [||]) in
      sc.out_toks <- grow sc.out_toks;
      sc.out_spans <- grow sc.out_spans
    end;
    sc.out_toks.(b) <- Array.make block Token.EOF;
    sc.out_spans.(b) <- Array.make (2 * block) 0
  end;
  sc.out_toks.(b).(k) <- tok;
  sc.out_spans.(b).(2 * k) <- pack start sc.offset;
  sc.out_spans.(b).((2 * k) + 1) <- pack sc.line (start - sc.bol);
  sc.out_count <- n + 1

let is_digit ch = ch >= '0' && ch <= '9'

let is_id_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')

let is_id_char ch = is_id_start ch || is_digit ch || ch = '_' || ch = '\''

(* the offset of the first character at or after [i] that [keep]
   rejects *)
let span_end sc keep i =
  let i = ref i in
  while !i < sc.len && keep sc.src.[!i] do
    incr i
  done;
  !i

let starts_comment sc i =
  i + 1 < sc.len && sc.src.[i] = '(' && sc.src.[i + 1] = '*'

let ends_comment sc i =
  i + 1 < sc.len && sc.src.[i] = '*' && sc.src.[i + 1] = ')'

(* Skip whitespace and (nested) comments; raise on unterminated comment. *)
let rec skip_trivia sc =
  if sc.offset < sc.len then
    match sc.src.[sc.offset] with
    | ' ' | '\t' | '\r' | '\n' ->
      advance sc;
      skip_trivia sc
    | '(' when starts_comment sc sc.offset ->
      let start = here sc in
      sc.offset <- sc.offset + 2;
      skip_comment sc start 1;
      skip_trivia sc
    | _ -> ()

and skip_comment sc start depth =
  if depth > 0 then
    if sc.offset >= sc.len then
      Diag.error Diag.Lex (Loc.make sc.file start start) "unterminated comment"
    else if starts_comment sc sc.offset then begin
      sc.offset <- sc.offset + 2;
      skip_comment sc start (depth + 1)
    end
    else if ends_comment sc sc.offset then begin
      sc.offset <- sc.offset + 2;
      skip_comment sc start (depth - 1)
    end
    else begin
      advance sc;
      skip_comment sc start depth
    end

(* The digits run from the cursor; [start] is where the literal began
   (at its [~], if any).  The magnitude is accumulated negated, so that
   [~4611686018427387904] is [min_int]. *)
let lex_int sc ~start ~negative =
  let first = sc.offset in
  let stop = span_end sc is_digit first in
  sc.offset <- stop;
  (* [1], never a negated magnitude, marks an overflow *)
  let rec value i acc =
    if i = stop then acc
    else
      let d = Char.code sc.src.[i] - Char.code '0' in
      if acc < (min_int + d) / 10 then 1 else value (i + 1) ((acc * 10) - d)
  in
  match value first 0 with
  | n when n <= 0 && negative -> Token.INT n
  | n when n <= 0 && n <> min_int -> Token.INT (-n)
  | _ -> (
    let d =
      Diag.make Diag.Lex
        (Loc.make sc.file (pos_at sc start) (here sc))
        "integer literal out of range"
    in
    (* recovered in place: the literal is consumed and [INT 0] stands in
       for it, so the parser sees a well-formed stream and the unit
       reports this one error *)
    match sc.diags with
    | None -> raise (Diag.Error d)
    | Some c ->
      Diag.emit c d;
      Token.INT 0)

let decimal_escape sc =
  let code = ref 0 in
  for _ = 1 to 3 do
    if sc.offset >= sc.len || not (is_digit sc.src.[sc.offset]) then
      lex_error sc "bad decimal escape"
    else begin
      code := (!code * 10) + Char.code sc.src.[sc.offset] - Char.code '0';
      sc.offset <- sc.offset + 1
    end
  done;
  if !code > 255 then lex_error sc "escape out of range" else Char.chr !code

(* The body of a string literal with escapes, from the first backslash;
   [buf] holds the characters before it.  A string never spans a
   newline, so the cursor moves by offset alone. *)
let rec escaped_string sc buf =
  if sc.offset >= sc.len then lex_error sc "unterminated string literal"
  else
    match sc.src.[sc.offset] with
    | '"' ->
      sc.offset <- sc.offset + 1;
      Token.STRING (Buffer.contents buf)
    | '\\' ->
      sc.offset <- sc.offset + 1;
      if sc.offset >= sc.len then lex_error sc "unterminated escape"
      else begin
        (match sc.src.[sc.offset] with
        | 'n' ->
          Buffer.add_char buf '\n';
          sc.offset <- sc.offset + 1
        | 't' ->
          Buffer.add_char buf '\t';
          sc.offset <- sc.offset + 1
        | '\\' ->
          Buffer.add_char buf '\\';
          sc.offset <- sc.offset + 1
        | '"' ->
          Buffer.add_char buf '"';
          sc.offset <- sc.offset + 1
        | ch when is_digit ch -> Buffer.add_char buf (decimal_escape sc)
        | ch -> lex_error sc "unknown escape '\\%c'" ch);
        escaped_string sc buf
      end
    | '\n' -> lex_error sc "newline in string literal"
    | ch ->
      Buffer.add_char buf ch;
      sc.offset <- sc.offset + 1;
      escaped_string sc buf

(* a literal without escapes is one [String.sub] of the source *)
let lex_string sc =
  let first = sc.offset + 1 (* past the opening quote *) in
  let plain ch = ch <> '"' && ch <> '\\' && ch <> '\n' in
  let stop = span_end sc plain first in
  sc.offset <- stop;
  if stop >= sc.len then lex_error sc "unterminated string literal"
  else
    match sc.src.[stop] with
    | '"' ->
      sc.offset <- stop + 1;
      Token.STRING (String.sub sc.src first (stop - first))
    | '\\' ->
      let buf = Buffer.create (stop - first + 16) in
      Buffer.add_substring buf sc.src first (stop - first);
      escaped_string sc buf
    | _ -> lex_error sc "newline in string literal"

let lex_word sc =
  let first = sc.offset in
  let stop = span_end sc is_id_char first in
  sc.offset <- stop;
  let word = String.sub sc.src first (stop - first) in
  match Token.keyword word with Some tok -> tok | None -> Token.ID word

let lex_tyvar sc =
  let first = sc.offset + 1 (* past the quote *) in
  let stop = span_end sc is_id_char first in
  sc.offset <- stop;
  if stop = first then lex_error sc "empty type variable"
  else Token.TYVAR (String.sub sc.src first (stop - first))

(* Longest-match scanning of symbolic tokens. *)
let lex_symbolic sc =
  let i = sc.offset in
  let next = if i + 1 < sc.len then sc.src.[i + 1] else ' ' in
  let take n tok =
    sc.offset <- i + n;
    tok
  in
  match sc.src.[i] with
  | '=' -> if next = '>' then take 2 Token.DARROW else take 1 Token.EQUAL
  | '-' -> if next = '>' then take 2 Token.ARROW else take 1 Token.MINUS
  | ':' -> (
    match next with
    | '>' -> take 2 Token.COLONGT
    | '=' -> take 2 Token.ASSIGN
    | ':' -> take 2 Token.CONS
    | _ -> take 1 Token.COLON)
  | '<' -> (
    match next with
    | '=' -> take 2 Token.LESSEQ
    | '>' -> take 2 Token.NOTEQ
    | _ -> take 1 Token.LESS)
  | '>' -> if next = '=' then take 2 Token.GREATEREQ else take 1 Token.GREATER
  | '(' -> take 1 Token.LPAREN
  | ')' -> take 1 Token.RPAREN
  | '[' -> take 1 Token.LBRACKET
  | ']' -> take 1 Token.RBRACKET
  | ',' -> take 1 Token.COMMA
  | ';' -> take 1 Token.SEMI
  | '_' -> take 1 Token.UNDERSCORE
  | '|' -> take 1 Token.BAR
  | '.' -> take 1 Token.DOT
  | '*' -> take 1 Token.STAR
  | '+' -> take 1 Token.PLUS
  | '/' -> take 1 Token.SLASH
  | '^' -> take 1 Token.CARET
  | '@' -> take 1 Token.AT
  | '!' -> take 1 Token.BANG
  | '#' -> take 1 Token.HASH
  | ch -> lex_error sc "illegal character '%c'" ch

let scan_token sc =
  let start = sc.offset in
  let tok =
    match sc.src.[start] with
    | '"' -> lex_string sc
    | '\'' -> lex_tyvar sc
    | '~' ->
      sc.offset <- start + 1;
      if sc.offset < sc.len && is_digit sc.src.[sc.offset] then
        lex_int sc ~start ~negative:true
      else lex_error sc "'~' must begin a negative integer literal"
    | ch when is_digit ch -> lex_int sc ~start ~negative:false
    | ch when is_id_start ch -> lex_word sc
    | _ -> lex_symbolic sc
  in
  push sc tok start

let make ?diags ~file src =
  let len = String.length src in
  (* about one token per three bytes *)
  let blocks = (len / (3 * block)) + 1 in
  let sc =
    {
      file;
      src;
      len;
      diags;
      offset = 0;
      line = 1;
      bol = 0;
      out_toks = Array.make blocks [||];
      out_spans = Array.make blocks [||];
      out_count = 0;
    }
  in
  let rec loop () =
    match
      skip_trivia sc;
      if sc.offset < sc.len then begin
        scan_token sc;
        true
      end
      else false
    with
    | true -> loop ()
    | false -> push sc Token.EOF sc.offset
    | exception Diag.Error d -> (
      (* recovery: report the bad token and resynchronize one character
         past the failure point so scanning always makes progress *)
      match diags with
      | None -> raise (Diag.Error d)
      | Some c ->
        Diag.emit c d;
        if sc.offset >= sc.len then push sc Token.EOF sc.offset
        else begin
          advance sc;
          loop ()
        end)
  in
  loop ();
  {
    file;
    toks = sc.out_toks;
    spans = sc.out_spans;
    count = sc.out_count;
    pos = 0;
  }

let token (lexer : t) i = lexer.toks.(i lsr block_bits).(i land (block - 1))

let loc_of (lexer : t) i =
  let spans = lexer.spans.(i lsr block_bits) and k = 2 * (i land (block - 1)) in
  let start = high spans.(k) and stop = low spans.(k) in
  let line = high spans.(k + 1) and col = low spans.(k + 1) in
  Loc.make lexer.file
    { Loc.line; col; offset = start }
    { Loc.line; col = col + stop - start; offset = stop }

let peek lexer = token lexer lexer.pos
let loc lexer = loc_of lexer lexer.pos

let peek2 lexer =
  if lexer.pos + 1 < lexer.count then token lexer (lexer.pos + 1) else Token.EOF

let next lexer =
  let tok = peek lexer in
  if lexer.pos + 1 < lexer.count then lexer.pos <- lexer.pos + 1;
  tok

let all ?diags ~file src =
  let lexer = make ?diags ~file src in
  List.init lexer.count (fun i -> (token lexer i, loc_of lexer i))
