(* The list-building lexer, kept as a differential oracle for
   {!Lang.Lexer}: a character cursor that copies every word, integer and
   type variable through a [Buffer], matches two-character symbols on a
   [String.sub], and builds a [Loc.t] per token into a list.  The token
   stream and the diagnostics are the specification the flat-array lexer
   must reproduce. *)

module Token = Lang.Token
module Loc = Support.Loc
module Diag = Support.Diag

type t = {
  tokens : (Token.t * Loc.t) array;
  mutable pos : int;
}

(* The scanner proper: a cursor over the source string tracking
   line/column. *)
type cursor = {
  file : string;
  src : string;
  mutable offset : int;
  mutable line : int;
  mutable col : int;
}

let cursor_pos cur = { Loc.line = cur.line; col = cur.col; offset = cur.offset }

let at_end cur = cur.offset >= String.length cur.src
let current cur = cur.src.[cur.offset]

let advance cur =
  (if current cur = '\n' then begin
     cur.line <- cur.line + 1;
     cur.col <- 0
   end
   else cur.col <- cur.col + 1);
  cur.offset <- cur.offset + 1

let lex_error cur fmt =
  let pos = cursor_pos cur in
  Diag.error Diag.Lex (Loc.make cur.file pos pos) fmt

let is_digit ch = ch >= '0' && ch <= '9'

let is_id_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')

let is_id_char ch = is_id_start ch || is_digit ch || ch = '_' || ch = '\''

(* Skip whitespace and (nested) comments; raise on unterminated comment. *)
let rec skip_trivia cur =
  if at_end cur then ()
  else
    match current cur with
    | ' ' | '\t' | '\r' | '\n' ->
      advance cur;
      skip_trivia cur
    | '(' when cur.offset + 1 < String.length cur.src
               && cur.src.[cur.offset + 1] = '*' ->
      let start = cursor_pos cur in
      advance cur;
      advance cur;
      skip_comment cur start 1;
      skip_trivia cur
    | _ -> ()

and skip_comment cur start depth =
  if depth = 0 then ()
  else if at_end cur then
    Diag.error Diag.Lex (Loc.make cur.file start start) "unterminated comment"
  else if
    current cur = '('
    && cur.offset + 1 < String.length cur.src
    && cur.src.[cur.offset + 1] = '*'
  then begin
    advance cur;
    advance cur;
    skip_comment cur start (depth + 1)
  end
  else if
    current cur = '*'
    && cur.offset + 1 < String.length cur.src
    && cur.src.[cur.offset + 1] = ')'
  then begin
    advance cur;
    advance cur;
    skip_comment cur start (depth - 1)
  end
  else begin
    advance cur;
    skip_comment cur start depth
  end

let lex_int cur ~negative =
  let buf = Buffer.create 8 in
  while (not (at_end cur)) && is_digit (current cur) do
    Buffer.add_char buf (current cur);
    advance cur
  done;
  let magnitude = int_of_string (Buffer.contents buf) in
  Token.INT (if negative then -magnitude else magnitude)

let lex_string cur =
  advance cur (* opening quote *);
  let buf = Buffer.create 16 in
  let rec loop () =
    if at_end cur then lex_error cur "unterminated string literal"
    else
      match current cur with
      | '"' ->
        advance cur;
        Token.STRING (Buffer.contents buf)
      | '\\' ->
        advance cur;
        if at_end cur then lex_error cur "unterminated escape"
        else begin
          (match current cur with
          | 'n' ->
            Buffer.add_char buf '\n';
            advance cur
          | 't' ->
            Buffer.add_char buf '\t';
            advance cur
          | '\\' ->
            Buffer.add_char buf '\\';
            advance cur
          | '"' ->
            Buffer.add_char buf '"';
            advance cur
          | ch when is_digit ch ->
            (* \ddd decimal escape *)
            let d = Buffer.create 3 in
            for _ = 1 to 3 do
              if at_end cur || not (is_digit (current cur)) then
                lex_error cur "bad decimal escape"
              else begin
                Buffer.add_char d (current cur);
                advance cur
              end
            done;
            let code = int_of_string (Buffer.contents d) in
            if code > 255 then lex_error cur "escape out of range"
            else Buffer.add_char buf (Char.chr code)
          | ch -> lex_error cur "unknown escape '\\%c'" ch);
          loop ()
        end
      | '\n' -> lex_error cur "newline in string literal"
      | ch ->
        Buffer.add_char buf ch;
        advance cur;
        loop ()
  in
  loop ()

let lex_word cur =
  let buf = Buffer.create 12 in
  while (not (at_end cur)) && is_id_char (current cur) do
    Buffer.add_char buf (current cur);
    advance cur
  done;
  let word = Buffer.contents buf in
  match Token.keyword word with Some tok -> tok | None -> Token.ID word

let lex_tyvar cur =
  advance cur (* the quote *);
  let buf = Buffer.create 4 in
  while (not (at_end cur)) && is_id_char (current cur) do
    Buffer.add_char buf (current cur);
    advance cur
  done;
  if Buffer.length buf = 0 then lex_error cur "empty type variable"
  else Token.TYVAR (Buffer.contents buf)

(* Longest-match scanning of symbolic tokens. *)
let lex_symbolic cur =
  let two =
    if cur.offset + 1 < String.length cur.src then
      Some (String.sub cur.src cur.offset 2)
    else None
  in
  let take2 tok =
    advance cur;
    advance cur;
    tok
  in
  let take1 tok =
    advance cur;
    tok
  in
  match two with
  | Some "=>" -> take2 Token.DARROW
  | Some "->" -> take2 Token.ARROW
  | Some ":>" -> take2 Token.COLONGT
  | Some ":=" -> take2 Token.ASSIGN
  | Some "<=" -> take2 Token.LESSEQ
  | Some ">=" -> take2 Token.GREATEREQ
  | Some "<>" -> take2 Token.NOTEQ
  | Some "::" -> take2 Token.CONS
  | _ -> (
    match current cur with
    | '(' -> take1 Token.LPAREN
    | ')' -> take1 Token.RPAREN
    | '[' -> take1 Token.LBRACKET
    | ']' -> take1 Token.RBRACKET
    | ',' -> take1 Token.COMMA
    | ';' -> take1 Token.SEMI
    | '_' -> take1 Token.UNDERSCORE
    | '|' -> take1 Token.BAR
    | '=' -> take1 Token.EQUAL
    | ':' -> take1 Token.COLON
    | '.' -> take1 Token.DOT
    | '*' -> take1 Token.STAR
    | '+' -> take1 Token.PLUS
    | '-' -> take1 Token.MINUS
    | '/' -> take1 Token.SLASH
    | '^' -> take1 Token.CARET
    | '<' -> take1 Token.LESS
    | '>' -> take1 Token.GREATER
    | '@' -> take1 Token.AT
    | '!' -> take1 Token.BANG
    | '#' -> take1 Token.HASH
    | ch -> lex_error cur "illegal character '%c'" ch)

let scan_token cur =
  let start = cursor_pos cur in
  let tok =
    match current cur with
    | '"' -> lex_string cur
    | '\'' -> lex_tyvar cur
    | '~' ->
      advance cur;
      if (not (at_end cur)) && is_digit (current cur) then
        lex_int cur ~negative:true
      else Token.ID "~"
    | ch when is_digit ch -> lex_int cur ~negative:false
    | ch when is_id_start ch -> lex_word cur
    | _ -> lex_symbolic cur
  in
  (tok, Loc.make cur.file start (cursor_pos cur))

let all ?diags ~file src =
  let cur = { file; src; offset = 0; line = 1; col = 0 } in
  let eof acc =
    let p = cursor_pos cur in
    List.rev ((Token.EOF, Loc.make file p p) :: acc)
  in
  let rec loop acc =
    match
      skip_trivia cur;
      if at_end cur then None else Some (scan_token cur)
    with
    | None -> eof acc
    | Some tok -> loop (tok :: acc)
    | exception Diag.Error d -> (
      (* recovery: report the bad token and resynchronize one character
         past the failure point so scanning always makes progress *)
      match diags with
      | None -> raise (Diag.Error d)
      | Some c ->
        Diag.emit c d;
        if at_end cur then eof acc
        else begin
          advance cur;
          loop acc
        end)
  in
  loop []

let make ?diags ~file src =
  { tokens = Array.of_list (all ?diags ~file src); pos = 0 }

let peek lexer = fst lexer.tokens.(lexer.pos)
let loc lexer = snd lexer.tokens.(lexer.pos)

let peek2 lexer =
  if lexer.pos + 1 < Array.length lexer.tokens then
    fst lexer.tokens.(lexer.pos + 1)
  else Token.EOF

let next lexer =
  let tok = peek lexer in
  if lexer.pos + 1 < Array.length lexer.tokens then lexer.pos <- lexer.pos + 1;
  tok
