type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

(* --- printing --- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escape buffer c =
  match c with
  | '"' -> Buffer.add_string buffer "\\\""
  | '\\' -> Buffer.add_string buffer "\\\\"
  | '\n' -> Buffer.add_string buffer "\\n"
  | '\r' -> Buffer.add_string buffer "\\r"
  | '\t' -> Buffer.add_string buffer "\\t"
  | '\b' -> Buffer.add_string buffer "\\b"
  | '\012' -> Buffer.add_string buffer "\\f"
  | c ->
      let hex = "0123456789abcdef" in
      Buffer.add_string buffer "\\u00";
      Buffer.add_char buffer hex.[Char.code c lsr 4];
      Buffer.add_char buffer hex.[Char.code c land 0xf]

(* Each run of bytes that needs no escape is added as one substring. *)
let add_string buffer s =
  let n = String.length s in
  Buffer.add_char buffer '"';
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buffer s !run (i - !run);
      add_escape buffer c;
      run := i + 1
    end
  done;
  Buffer.add_substring buffer s !run (n - !run);
  Buffer.add_char buffer '"'

(* The C conversion Printf's [%g] ends in, called without Printf's
   format interpreter: same bytes, a third of the cost. *)
external format_float : string -> float -> string = "caml_format_float"

let number_to_string f =
  if not (Float.is_finite f) then invalid_arg "Json.to_string: non-finite number";
  if Float.is_integer f && Float.abs f < 1e15 then
    (* What %.0f prints: exact below 1e15, and -0 keeps its sign. *)
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else
    (* Shortest representation that round-trips. *)
    let shorter = format_float "%.15g" f in
    if float_of_string shorter = f then shorter else format_float "%.17g" f

let add_number buffer f = Buffer.add_string buffer (number_to_string f)

let to_string ?(indent = 0) t =
  let buffer = Buffer.create 256 in
  let pad level =
    if indent > 0 then begin
      Buffer.add_char buffer '\n';
      Buffer.add_string buffer (String.make (level * indent) ' ')
    end
  in
  let rec emit level = function
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
    | Number f -> add_number buffer f
    | String s -> add_string buffer s
    | List [] -> Buffer.add_string buffer "[]"
    | List items ->
        Buffer.add_char buffer '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buffer ',';
            pad (level + 1);
            emit (level + 1) item)
          items;
        pad level;
        Buffer.add_char buffer ']'
    | Object [] -> Buffer.add_string buffer "{}"
    | Object fields ->
        Buffer.add_char buffer '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buffer ',';
            pad (level + 1);
            add_string buffer key;
            Buffer.add_char buffer ':';
            if indent > 0 then Buffer.add_char buffer ' ';
            emit (level + 1) value)
          fields;
        pad level;
        Buffer.add_char buffer '}'
  in
  emit 0 t;
  Buffer.contents buffer

(* --- parsing --- *)

(* One cursor per document; every error is raised at its position. *)
type cursor = { input : string; mutable pos : int }

exception Parse_error of int * string

let fail cur message = raise (Parse_error (cur.pos, message))
let at_end cur = cur.pos >= String.length cur.input

(* The byte under the cursor; only called when not [at_end]. *)
let current cur = String.unsafe_get cur.input cur.pos

let expect cur c =
  if at_end cur then fail cur (Printf.sprintf "expected %c, found end of input" c)
  else if current cur = c then cur.pos <- cur.pos + 1
  else fail cur (Printf.sprintf "expected %c, found %c" c (current cur))

let rec skip_whitespace cur =
  if not (at_end cur) then
    match current cur with
    | ' ' | '\t' | '\n' | '\r' ->
        cur.pos <- cur.pos + 1;
        skip_whitespace cur
    | _ -> ()

let expect_literal cur literal value =
  let len = String.length literal in
  let rec matches i = i = len || (cur.input.[cur.pos + i] = literal.[i] && matches (i + 1)) in
  if cur.pos + len <= String.length cur.input && matches 0 then begin
    cur.pos <- cur.pos + len;
    value
  end
  else fail cur (Printf.sprintf "invalid literal, expected %s" literal)

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Exactly four hex digits, the cursor past them; a bad digit is
   reported after all four. *)
let parse_hex4 cur =
  let p = cur.pos in
  if p + 4 > String.length cur.input then fail cur "truncated \\u escape";
  cur.pos <- p + 4;
  let digit i = hex_value (String.unsafe_get cur.input (p + i)) in
  let d0 = digit 0 and d1 = digit 1 and d2 = digit 2 and d3 = digit 3 in
  if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 then fail cur "invalid \\u escape";
  (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3

(* The code point of a [\u] escape whose four digits start at the
   cursor. A high surrogate must be followed by a [\u] low surrogate,
   and the pair is one code point; a lone surrogate of either kind is
   an invalid escape. *)
let parse_code_point cur =
  let code = parse_hex4 cur in
  if code < 0xD800 || code > 0xDFFF then code
  else if code >= 0xDC00 then fail cur "invalid \\u escape"
  else
    let p = cur.pos in
    if p + 2 <= String.length cur.input && cur.input.[p] = '\\' && cur.input.[p + 1] = 'u'
    then begin
      cur.pos <- p + 2;
      let low = parse_hex4 cur in
      if low < 0xDC00 || low > 0xDFFF then fail cur "invalid \\u escape";
      0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
    end
    else fail cur "invalid \\u escape"

let add_utf8 buffer code =
  let byte b = Buffer.add_char buffer (Char.unsafe_chr b) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xC0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3F))
  end
  else if code < 0x10000 then begin
    byte (0xE0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end
  else begin
    byte (0xF0 lor (code lsr 18));
    byte (0x80 lor ((code lsr 12) land 0x3F));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end

(* The rest of a string after its first escape: [buffer] holds what
   came before, the cursor is on the backslash. *)
let rec parse_escaped cur buffer =
  if at_end cur then fail cur "unterminated string";
  match current cur with
  | '"' ->
      cur.pos <- cur.pos + 1;
      Buffer.contents buffer
  | '\\' ->
      cur.pos <- cur.pos + 1;
      if at_end cur then fail cur "unterminated escape";
      let c = current cur in
      cur.pos <- cur.pos + 1;
      (match c with
      | '"' -> Buffer.add_char buffer '"'
      | '\\' -> Buffer.add_char buffer '\\'
      | '/' -> Buffer.add_char buffer '/'
      | 'n' -> Buffer.add_char buffer '\n'
      | 't' -> Buffer.add_char buffer '\t'
      | 'r' -> Buffer.add_char buffer '\r'
      | 'b' -> Buffer.add_char buffer '\b'
      | 'f' -> Buffer.add_char buffer '\012'
      | 'u' -> add_utf8 buffer (parse_code_point cur)
      | c ->
          cur.pos <- cur.pos - 1;
          fail cur (Printf.sprintf "invalid escape \\%c" c));
      parse_escaped cur buffer
  | c when Char.code c < 0x20 -> fail cur "control character in string"
  | c ->
      Buffer.add_char buffer c;
      cur.pos <- cur.pos + 1;
      parse_escaped cur buffer

(* A string without escapes is one [String.sub]; the buffer is made at
   the first escape. *)
let parse_string cur =
  expect cur '"';
  let start = cur.pos and input = cur.input in
  let n = String.length input in
  let rec scan i =
    if i >= n then begin
      cur.pos <- n;
      fail cur "unterminated string"
    end
    else
      match String.unsafe_get input i with
      | '"' ->
          cur.pos <- i + 1;
          String.sub input start (i - start)
      | '\\' ->
          cur.pos <- i;
          let buffer = Buffer.create (i - start + 16) in
          Buffer.add_substring buffer input start (i - start);
          parse_escaped cur buffer
      | c when Char.code c < 0x20 ->
          cur.pos <- i;
          fail cur "control character in string"
      | _ -> scan (i + 1)
  in
  scan start

let rec skip_digits cur =
  if (not (at_end cur)) && current cur >= '0' && current cur <= '9' then begin
    cur.pos <- cur.pos + 1;
    skip_digits cur
  end

let next_is cur c = (not (at_end cur)) && current cur = c

let parse_number cur =
  let start = cur.pos in
  if next_is cur '-' then cur.pos <- cur.pos + 1;
  skip_digits cur;
  if next_is cur '.' then begin
    cur.pos <- cur.pos + 1;
    skip_digits cur
  end;
  if next_is cur 'e' || next_is cur 'E' then begin
    cur.pos <- cur.pos + 1;
    if next_is cur '+' || next_is cur '-' then cur.pos <- cur.pos + 1;
    skip_digits cur
  end;
  let token = String.sub cur.input start (cur.pos - start) in
  match float_of_string_opt token with
  | Some f when Float.is_finite f -> f
  | Some _ -> fail cur (Printf.sprintf "number %S out of range" token)
  | None -> fail cur (Printf.sprintf "invalid number %S" token)

let rec parse_value cur =
  skip_whitespace cur;
  if at_end cur then fail cur "unexpected end of input";
  match current cur with
  | '{' ->
      cur.pos <- cur.pos + 1;
      skip_whitespace cur;
      if next_is cur '}' then begin
        cur.pos <- cur.pos + 1;
        Object []
      end
      else Object (parse_fields cur [])
  | '[' ->
      cur.pos <- cur.pos + 1;
      skip_whitespace cur;
      if next_is cur ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else List (parse_items cur [])
  | '"' -> String (parse_string cur)
  | 't' -> expect_literal cur "true" (Bool true)
  | 'f' -> expect_literal cur "false" (Bool false)
  | 'n' -> expect_literal cur "null" Null
  | '-' | '0' .. '9' -> Number (parse_number cur)
  | c -> fail cur (Printf.sprintf "unexpected character %c" c)

and parse_fields cur acc =
  skip_whitespace cur;
  let key = parse_string cur in
  skip_whitespace cur;
  expect cur ':';
  let value = parse_value cur in
  skip_whitespace cur;
  if next_is cur ',' then begin
    cur.pos <- cur.pos + 1;
    parse_fields cur ((key, value) :: acc)
  end
  else if next_is cur '}' then begin
    cur.pos <- cur.pos + 1;
    List.rev ((key, value) :: acc)
  end
  else fail cur "expected , or } in object"

and parse_items cur acc =
  let value = parse_value cur in
  skip_whitespace cur;
  if next_is cur ',' then begin
    cur.pos <- cur.pos + 1;
    parse_items cur (value :: acc)
  end
  else if next_is cur ']' then begin
    cur.pos <- cur.pos + 1;
    List.rev (value :: acc)
  end
  else fail cur "expected , or ] in array"

let of_string input =
  let cur = { input; pos = 0 } in
  match
    let value = parse_value cur in
    skip_whitespace cur;
    if not (at_end cur) then fail cur "trailing input after document";
    value
  with
  | value -> Ok value
  | exception Parse_error (offset, message) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" offset message)

(* --- accessors --- *)

let member key = function
  | Object fields ->
      let rec find = function
        | [] -> None
        | (k, v) :: rest -> if String.equal k key then Some v else find rest
      in
      find fields
  | Null | Bool _ | Number _ | String _ | List _ -> None

let to_float = function Number f -> Some f | _ -> None

let to_int = function
  | Number f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_string_value = function String s -> Some s | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Number x, Number y -> x = y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Object x, Object y ->
      List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | (Null | Bool _ | Number _ | String _ | List _ | Object _), _ -> false

let pp ppf t = Format.pp_print_string ppf (to_string ~indent:2 t)
