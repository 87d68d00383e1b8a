type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape_to buf s =
  Buffer.add_char buf '"';
  (* the common string has nothing to escape: one blit *)
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* the C printer behind [string_of_float], without Printf's format
   interpretation *)
external format_float : string -> float -> string = "caml_format_float"

let float_to buf f =
  if Float.is_finite f then begin
    let s = format_float "%.17g" f in
    Buffer.add_string buf s;
    (* "1." or "1" are not but "1.0" is round-trippable JSON syntax *)
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf "null"

let rec to_buffer buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> float_to buf f
  | String s -> escape_to buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf key;
        Buffer.add_char buf ':';
        to_buffer buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* canonical form: object keys sorted recursively, so two structurally
   equal documents render byte-identically no matter how their field
   lists were assembled *)
let rec canonical v =
  match v with
  | Obj fields ->
    Obj
      (List.map (fun (k, v) -> (k, canonical v)) fields
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  | List items -> List (List.map canonical items)
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> v

let to_canonical_string v = to_string (canonical v)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some got when got = ch -> advance c
  | Some got -> fail "expected %c at offset %d, got %c" ch c.pos got
  | None -> fail "expected %c, got end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "bad literal at offset %d" c.pos

let utf8_of_code buf code =
  (* enough for \uXXXX escapes: the BMP, no surrogate pairing *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
      | Some (('"' | '\\' | '/') as ch) -> advance c; Buffer.add_char buf ch; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then fail "truncated \\u escape";
        let hex = String.sub c.src c.pos 4 in
        c.pos <- c.pos + 4;
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code -> utf8_of_code buf code
        | None -> fail "bad \\u escape %S" hex);
        go ()
      | Some ch -> fail "bad escape \\%c" ch
      | None -> fail "unterminated escape")
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  while match peek c with Some ch when is_num_char ch -> true | _ -> false do
    advance c
  done;
  let text = String.sub c.src start (c.pos - start) in
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail "bad number %S at offset %d" text start)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [ parse_value c ] in
      skip_ws c;
      while peek c = Some ',' do
        advance c;
        items := parse_value c :: !items;
        skip_ws c
      done;
      expect c ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let value = parse_value c in
        (key, value)
      in
      let fields = ref [ field () ] in
      skip_ws c;
      while peek c = Some ',' do
        advance c;
        fields := field () :: !fields;
        skip_ws c
      done;
      expect c '}';
      Obj (List.rev !fields)
    end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected %c at offset %d" ch c.pos

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing garbage at offset %d" c.pos;
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
