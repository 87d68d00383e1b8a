type t =
  | INT of int
  | STRING of string
  | ID of string
  | TYVAR of string
  | AND
  | ANDALSO
  | AS
  | CASE
  | DATATYPE
  | ELSE
  | END
  | EXCEPTION
  | FN
  | FUN
  | FUNCTOR
  | HANDLE
  | IF
  | IN
  | INCLUDE
  | LET
  | LOCAL
  | OF
  | OP
  | OPEN
  | ORELSE
  | RAISE
  | REC
  | SIG
  | SIGNATURE
  | STRUCT
  | STRUCTURE
  | THEN
  | TYPE
  | VAL
  | WHERE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | UNDERSCORE
  | BAR
  | EQUAL
  | DARROW
  | ARROW
  | COLON
  | COLONGT
  | DOT
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | CARET
  | LESS
  | GREATER
  | LESSEQ
  | GREATEREQ
  | NOTEQ
  | CONS
  | AT
  | BANG
  | ASSIGN
  | HASH
  | EOF

let keywords =
  [
    ("and", AND);
    ("andalso", ANDALSO);
    ("as", AS);
    ("case", CASE);
    ("datatype", DATATYPE);
    ("else", ELSE);
    ("end", END);
    ("exception", EXCEPTION);
    ("fn", FN);
    ("fun", FUN);
    ("functor", FUNCTOR);
    ("handle", HANDLE);
    ("if", IF);
    ("in", IN);
    ("include", INCLUDE);
    ("let", LET);
    ("local", LOCAL);
    ("of", OF);
    ("op", OP);
    ("open", OPEN);
    ("orelse", ORELSE);
    ("raise", RAISE);
    ("rec", REC);
    ("sig", SIG);
    ("signature", SIGNATURE);
    ("struct", STRUCT);
    ("structure", STRUCTURE);
    ("then", THEN);
    ("type", TYPE);
    ("val", VAL);
    ("where", WHERE);
  ]

let keyword_table =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, tok) -> Hashtbl.add tbl name tok) keywords;
  tbl

let keyword name = Hashtbl.find_opt keyword_table name

let to_string = function
  | INT n -> Support.Int_text.to_string n
  | STRING s -> Printf.sprintf "%S" s
  | ID s -> s
  | TYVAR s -> "'" ^ s
  | AND -> "and"
  | ANDALSO -> "andalso"
  | AS -> "as"
  | CASE -> "case"
  | DATATYPE -> "datatype"
  | ELSE -> "else"
  | END -> "end"
  | EXCEPTION -> "exception"
  | FN -> "fn"
  | FUN -> "fun"
  | FUNCTOR -> "functor"
  | HANDLE -> "handle"
  | IF -> "if"
  | IN -> "in"
  | INCLUDE -> "include"
  | LET -> "let"
  | LOCAL -> "local"
  | OF -> "of"
  | OP -> "op"
  | OPEN -> "open"
  | ORELSE -> "orelse"
  | RAISE -> "raise"
  | REC -> "rec"
  | SIG -> "sig"
  | SIGNATURE -> "signature"
  | STRUCT -> "struct"
  | STRUCTURE -> "structure"
  | THEN -> "then"
  | TYPE -> "type"
  | VAL -> "val"
  | WHERE -> "where"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | SEMI -> ";"
  | UNDERSCORE -> "_"
  | BAR -> "|"
  | EQUAL -> "="
  | DARROW -> "=>"
  | ARROW -> "->"
  | COLON -> ":"
  | COLONGT -> ":>"
  | DOT -> "."
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | CARET -> "^"
  | LESS -> "<"
  | GREATER -> ">"
  | LESSEQ -> "<="
  | GREATEREQ -> ">="
  | NOTEQ -> "<>"
  | CONS -> "::"
  | AT -> "@"
  | BANG -> "!"
  | ASSIGN -> ":="
  | HASH -> "#"
  | EOF -> "<eof>"

let pp ppf tok = Format.pp_print_string ppf (to_string tok)
