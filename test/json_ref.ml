(* The JSON string escaper and parser the library ran before it wrote
   runs of bytes as substrings and parsed through one cursor record,
   kept as the oracles test_json compares Json.add_string and
   Json.of_string with. The parser peeks one [char option] per byte and
   reads a [\u] escape with [int_of_string_opt], so it differs from the
   library on two inputs only: four "hex digits" that hold an OCaml
   digit separator ([\u1_2b] reads as U+012B here), and UTF-16
   surrogates, which it encodes one half at a time. *)

open Stratrec_util.Json

let escape_string buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | '\b' -> Buffer.add_string buffer "\\b"
      | '\012' -> Buffer.add_string buffer "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

exception Parse_error of int * string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail message = raise (Parse_error (!pos, message)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %c, found %c" c got)
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let rec skip_whitespace () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_whitespace ()
    | Some _ | None -> ()
  in
  let expect_literal literal value =
    let len = String.length literal in
    if !pos + len <= n && String.sub input !pos len = literal then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "invalid literal, expected %s" literal)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let hex = String.sub input !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ hex) with
    | Some code -> code
    | None -> fail "invalid \\u escape"
  in
  let add_utf8 buffer code =
    (* Encode a BMP code point as UTF-8. *)
    if code < 0x80 then Buffer.add_char buffer (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buffer '"'; advance ()
          | Some '\\' -> Buffer.add_char buffer '\\'; advance ()
          | Some '/' -> Buffer.add_char buffer '/'; advance ()
          | Some 'n' -> Buffer.add_char buffer '\n'; advance ()
          | Some 't' -> Buffer.add_char buffer '\t'; advance ()
          | Some 'r' -> Buffer.add_char buffer '\r'; advance ()
          | Some 'b' -> Buffer.add_char buffer '\b'; advance ()
          | Some 'f' -> Buffer.add_char buffer '\012'; advance ()
          | Some 'u' ->
              advance ();
              add_utf8 buffer (parse_hex4 ())
          | Some c -> fail (Printf.sprintf "invalid escape \\%c" c)
          | None -> fail "unterminated escape");
          loop ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          Buffer.add_char buffer c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    let consume_while predicate =
      let continue = ref true in
      while !continue do
        match peek () with
        | Some c when predicate c -> advance ()
        | Some _ | None -> continue := false
      done
    in
    if peek () = Some '-' then advance ();
    consume_while (fun c -> c >= '0' && c <= '9');
    if peek () = Some '.' then begin
      advance ();
      consume_while (fun c -> c >= '0' && c <= '9')
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | Some _ | None -> ());
        consume_while (fun c -> c >= '0' && c <= '9')
    | Some _ | None -> ());
    let token = String.sub input start (!pos - start) in
    match float_of_string_opt token with
    | Some f when Float.is_finite f -> f
    | Some _ -> fail (Printf.sprintf "number %S out of range" token)
    | None -> fail (Printf.sprintf "invalid number %S" token)
  in
  let rec parse_value () =
    skip_whitespace ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_whitespace ();
        if peek () = Some '}' then begin
          advance ();
          Object []
        end
        else begin
          let rec fields acc =
            skip_whitespace ();
            let key = parse_string () in
            skip_whitespace ();
            expect ':';
            let value = parse_value () in
            skip_whitespace ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, value) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, value) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Object (fields [])
        end
    | Some '[' ->
        advance ();
        skip_whitespace ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let value = parse_value () in
            skip_whitespace ();
            match peek () with
            | Some ',' ->
                advance ();
                items (value :: acc)
            | Some ']' ->
                advance ();
                List.rev (value :: acc)
            | _ -> fail "expected , or ] in array"
          in
          List (items [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> expect_literal "true" (Bool true)
    | Some 'f' -> expect_literal "false" (Bool false)
    | Some 'n' -> expect_literal "null" Null
    | Some ('-' | '0' .. '9') -> Number (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let value = parse_value () in
    skip_whitespace ();
    if !pos <> n then fail "trailing input after document";
    value
  with
  | value -> Ok value
  | exception Parse_error (offset, message) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" offset message)
