(* Unit and property tests for the JSON substrate. *)

module Json = Stratrec_util.Json

let json = Alcotest.testable Json.pp Json.equal

let parse_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "expected %S to parse: %s" s e

let test_literals () =
  Alcotest.check json "null" Json.Null (parse_ok "null");
  Alcotest.check json "true" (Json.Bool true) (parse_ok "true");
  Alcotest.check json "false" (Json.Bool false) (parse_ok " false ");
  Alcotest.check json "number" (Json.Number 42.) (parse_ok "42");
  Alcotest.check json "negative" (Json.Number (-3.5)) (parse_ok "-3.5");
  Alcotest.check json "exponent" (Json.Number 1200.) (parse_ok "1.2e3");
  Alcotest.check json "string" (Json.String "hi") (parse_ok "\"hi\"")

let test_structures () =
  Alcotest.check json "empty array" (Json.List []) (parse_ok "[]");
  Alcotest.check json "empty object" (Json.Object []) (parse_ok "{}");
  Alcotest.check json "nested"
    (Json.Object
       [
         ("a", Json.List [ Json.Number 1.; Json.Number 2. ]);
         ("b", Json.Object [ ("c", Json.Null) ]);
       ])
    (parse_ok {| { "a": [1, 2], "b": { "c": null } } |})

let test_string_escapes () =
  Alcotest.check json "escapes" (Json.String "a\"b\\c\nd\te")
    (parse_ok {|"a\"b\\c\nd\te"|});
  Alcotest.check json "unicode escape" (Json.String "\xc3\xa9") (parse_ok {|"é"|});
  (* Round trip through the printer. *)
  let original = Json.String "quote\" backslash\\ newline\n control\x01" in
  Alcotest.check json "print/parse roundtrip" original (parse_ok (Json.to_string original))

let test_errors () =
  let is_error s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to fail" s
  in
  List.iter is_error
    [
      ""; "tru"; "[1,"; "{\"a\":}"; "{\"a\" 1}"; "\"unterminated"; "[1] trailing"; "{1: 2}";
      "nul"; "+1"; "\"bad\\escape\"" ; "1e400"; "[-1e400]";
    ]

let test_accessors () =
  let doc = parse_ok {| {"x": 3, "y": [1, true], "s": "v", "f": 1.5} |} in
  Alcotest.(check (option int)) "int" (Some 3) (Option.bind (Json.member "x" doc) Json.to_int);
  Alcotest.(check (option int)) "non-integral int" None
    (Option.bind (Json.member "f" doc) Json.to_int);
  Alcotest.(check (option (float 0.))) "float" (Some 1.5)
    (Option.bind (Json.member "f" doc) Json.to_float);
  Alcotest.(check (option string)) "string" (Some "v")
    (Option.bind (Json.member "s" doc) Json.to_string_value);
  Alcotest.(check bool) "list" true
    (match Option.bind (Json.member "y" doc) Json.to_list with
    | Some [ _; Json.Bool true ] -> true
    | _ -> false);
  Alcotest.(check (option bool)) "missing member" None
    (Option.map (fun _ -> true) (Json.member "absent" doc))

let test_pretty_printing () =
  let doc = Json.Object [ ("a", Json.List [ Json.Number 1. ]) ] in
  Alcotest.(check string) "compact" {|{"a":[1]}|} (Json.to_string doc);
  let pretty = Json.to_string ~indent:2 doc in
  Alcotest.(check bool) "pretty has newlines" true (String.contains pretty '\n');
  Alcotest.check json "pretty reparses" doc (parse_ok pretty)

let test_non_finite_rejected () =
  Alcotest.check_raises "nan" (Invalid_argument "Json.to_string: non-finite number") (fun () ->
      ignore (Json.to_string (Json.Number Float.nan)))

(* Random document generator for round-trip testing. *)
let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Number f) (float_range (-1e6) 1e6);
        map (fun s -> Json.String s) (small_string ~gen:printable);
      ]
  in
  let rec doc depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (0 -- 4) (doc (depth - 1))));
          ( 1,
            map
              (fun fields -> Json.Object fields)
              (list_size (0 -- 4)
                 (pair (small_string ~gen:printable) (doc (depth - 1)))) );
        ]
  in
  doc 3

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"print/parse roundtrip"
    (QCheck.make ~print:(fun j -> Json.to_string j) gen_json)
    (fun doc ->
      match Json.of_string (Json.to_string doc) with
      | Ok parsed -> Json.equal doc parsed
      | Error _ -> false)

let prop_pretty_roundtrip =
  QCheck.Test.make ~count:200 ~name:"pretty print/parse roundtrip"
    (QCheck.make ~print:(fun j -> Json.to_string j) gen_json)
    (fun doc ->
      match Json.of_string (Json.to_string ~indent:3 doc) with
      | Ok parsed -> Json.equal doc parsed
      | Error _ -> false)

(* The Printf printers the number fast paths replaced, kept as oracles:
   the fast paths must print the same bytes for every float. *)
let printf_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.15g" f in
    if float_of_string shorter = f then shorter else s

let printf_params (p : Stratrec_model.Params.t) =
  Printf.sprintf "%.12g,%.12g,%.12g" p.quality p.cost p.latency

let edge_floats =
  [
    0.; -0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 5e-324; -5e-324;
    Float.min_float; 2.2250738585072009e-308; 1e-310; Float.max_float; -.Float.max_float;
    1e15 -. 0.5; 0.1; 1. /. 3.;
  ]

(* Random bit patterns cover every exponent; integral and short-decimal
   draws exercise the %.0f and %.15g branches, which random bits rarely
   reach. *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (4, map Int64.float_of_bits ui64);
        (2, map float_of_int (int_range (-1_000_000_000_000_000) 1_000_000_000_000_000));
        ( 2,
          map2
            (fun digits x -> float_of_string (Printf.sprintf "%.*g" digits x))
            (int_range 1 17) (float_range (-1e6) 1e6) );
        (1, oneofl edge_floats);
      ])

let arb_float = QCheck.make ~print:(Printf.sprintf "%h") gen_float

let test_number_edges () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (printf_number f)
        (Json.to_string (Json.Number f)))
    edge_floats;
  Alcotest.(check string) "-0 keeps its sign" "-0" (Json.to_string (Json.Number (-0.)))

let prop_number_matches_printf =
  QCheck.Test.make ~count:5000 ~name:"number printer = the Printf oracle" arb_float (fun f ->
      if Float.is_finite f then Json.to_string (Json.Number f) = printf_number f
      else
        match Json.to_string (Json.Number f) with
        | _ -> false
        | exception Invalid_argument _ -> true)

let prop_params_matches_printf =
  QCheck.Test.make ~count:5000 ~name:"Params.to_string = the Printf oracle"
    (QCheck.triple arb_float arb_float arb_float)
    (fun (quality, cost, latency) ->
      let p = Stratrec_model.Params.make_unchecked ~quality ~cost ~latency in
      Stratrec_model.Params.to_string p = printf_params p)

(* [\u] escapes: exactly four hex digits, and UTF-16 surrogate pairs
   decode to one code point. *)
let test_unicode_escapes () =
  let parses_to name expected input =
    Alcotest.(check (result json string)) name (Ok (Json.String expected)) (Json.of_string input)
  in
  let fails_with name offset message input =
    Alcotest.(check (result json string))
      name
      (Error (Printf.sprintf "JSON parse error at offset %d: %s" offset message))
      (Json.of_string input)
  in
  parses_to "lower and upper case hex" "\xc3\xa9\xc3\xa9" {|"\u00e9\u00E9"|};
  parses_to "last code point before the surrogates" "\xed\x9f\xbf" {|"\ud7ff"|};
  parses_to "first code point after them" "\xee\x80\x80" {|"\ue000"|};
  parses_to "a surrogate pair is one 4-byte code point" "acme\xf0\x9f\x98\x80"
    {|"acme\ud83d\ude00"|};
  parses_to "upper-case pair" "\xf0\x9f\x98\x80" {|"\uD83D\uDE00"|};
  parses_to "lowest pair" "\xf0\x90\x80\x80" {|"\ud800\udc00"|};
  parses_to "highest pair" "\xf4\x8f\xbf\xbf" {|"\udbff\udfff"|};
  (* An OCaml digit separator is not a hex digit: reported after the
     four characters, where any other non-hex digit is. *)
  fails_with "separator inside" 8 "invalid \\u escape" {|"a\u1_2bz"|};
  fails_with "trailing separators" 7 "invalid \\u escape" {|"\u12__"|};
  fails_with "non-hex letter" 7 "invalid \\u escape" {|"\u12g4"|};
  fails_with "sign" 7 "invalid \\u escape" {|"\u+123"|};
  fails_with "truncated" 3 "truncated \\u escape" {|"\u12|};
  (* The same inputs the per-character parser accepted. *)
  Alcotest.(check (result json string))
    "the old parser read the separator" (Ok (Json.String "a\xc4\xabz")) (Json_ref.of_string {|"a\u1_2bz"|});
  fails_with "lone high surrogate" 7 "invalid \\u escape" {|"\ud83d"|};
  fails_with "high surrogate then another escape" 7 "invalid \\u escape" {|"\ud83d\n"|};
  fails_with "high surrogate then a non-surrogate" 13 "invalid \\u escape" {|"\ud83d\u0041"|};
  fails_with "two high surrogates" 13 "invalid \\u escape" {|"\ud83d\ud83d"|};
  fails_with "lone low surrogate" 7 "invalid \\u escape" {|"\ude00"|};
  fails_with "truncated low half" 9 "truncated \\u escape" {|"\ud83d\ude0|};
  fails_with "bad digit in the low half" 13 "invalid \\u escape" {|"\ud83d\ude0_"|}

(* The string writer against the per-byte escaper it replaced, on every
   byte value. *)
let prop_add_string_matches_ref =
  QCheck.Test.make ~count:1000 ~name:"Json.add_string = the per-byte escaper"
    QCheck.(string_gen_of_size Gen.(0 -- 40) Gen.char)
    (fun s ->
      let buffer = Buffer.create 16 and expected = Buffer.create 16 in
      Json.add_string buffer s;
      Json_ref.escape_string expected s;
      Buffer.contents buffer = Buffer.contents expected
      && Json.to_string (Json.String s) = Buffer.contents expected)

(* Strict structural equality: numbers compared by their bits, so -0.
   and 0. differ. *)
let rec strict_equal a b =
  match (a, b) with
  | Json.Number x, Json.Number y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List x, Json.List y -> List.equal strict_equal x y
  | Json.Object x, Json.Object y ->
      List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && strict_equal v1 v2) x y
  | _ -> Json.equal a b

(* Raw JSON text, written by hand rather than printed, so it carries
   what the printer never emits: whitespace, every escape, upper-case
   hex, number spellings such as -0, 1E+2 or 01, raw UTF-8, and now and
   then a raw control byte, which neither parser accepts. *)
let gen_text =
  let open QCheck.Gen in
  let ws = oneofl [ ""; ""; ""; " "; "\n"; "\t "; "\r\n  " ] in
  let hex_escape =
    map2
      (fun code upper ->
        let hex = Printf.sprintf "%04x" code in
        "\\u" ^ if upper then String.uppercase_ascii hex else hex)
      (oneof [ int_range 0 0xff; int_range 0x100 0xd7ff; int_range 0xe000 0xffff ])
      bool
  in
  let piece =
    frequency
      [
        (6, map (String.make 1) (char_range ' ' '~') >|= fun c -> if c = "\"" || c = "\\" then "x" else c);
        (2, oneofl [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|}; {|\t|} ]);
        (2, hex_escape);
        (1, oneofl [ "\xc3\xa9"; "\xf0\x9f\x98\x80"; "\x7f" ]);
        (1, map (fun i -> if i = 0 then "\x1f" else "") (int_bound 3));
      ]
  in
  let string_lit = map (fun parts -> "\"" ^ String.concat "" parts ^ "\"") (list_size (0 -- 8) piece) in
  let number =
    oneof
      [
        map string_of_int (int_range (-1_000_000) 1_000_000);
        map (Printf.sprintf "%.17g") (float_range (-1e6) 1e6);
        map (Printf.sprintf "%g") (float_range (-1e-3) 1e-3);
        oneofl [ "-0"; "0.5e-3"; "1E+2"; "-.5"; "01"; "1."; "1e308"; "2.5E-310"; "123456789012345678" ];
      ]
  in
  let rec value depth =
    let scalar =
      frequency
        [
          (1, oneofl [ "true"; "false"; "null" ]);
          (3, number);
          (3, string_lit);
        ]
    in
    if depth = 0 then scalar
    else
      let nested = value (depth - 1) in
      let wrap l r items = map2 (fun w items -> l ^ w ^ String.concat "," items ^ w ^ r) ws items in
      frequency
        [
          (3, scalar);
          (1, wrap "[" "]" (list_size (0 -- 4) (map2 ( ^ ) ws nested)));
          ( 1,
            wrap "{" "}"
              (list_size (0 -- 4)
                 (map3 (fun k w v -> k ^ w ^ ":" ^ w ^ v) string_lit ws nested)) );
        ]
  in
  map3 (fun a v b -> a ^ v ^ b) ws (value 3) ws

(* A document as the printer writes it, or as text; then maybe cut
   short, or with bytes replaced, inserted or removed. *)
let gen_input =
  let open QCheck.Gen in
  let interesting =
    oneof
      [ oneofl [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; 'u'; 'e'; '-'; '.'; '0'; '_'; ' '; '\x01' ]; char ]
  in
  let mutate s =
    if s = "" then map (String.make 1) interesting
    else
      let n = String.length s in
      map3
        (fun kind i c ->
          let i = i mod n in
          match kind with
          | 0 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
          | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
          | _ -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1))
        (int_bound 2) nat interesting
  in
  let base =
    oneof
      [
        map Json.to_string gen_json;
        map (Json.to_string ~indent:2) gen_json;
        gen_text;
      ]
  in
  base >>= fun s ->
  frequency
    [
      (2, return s);
      (1, map (fun i -> String.sub s 0 (i mod (String.length s + 1))) nat);
      (2, mutate s);
      (1, mutate s >>= mutate);
    ]

(* True where one of the two fixed [\u] readings applies: four
   characters holding an OCaml digit separator, or a surrogate. The
   oracle is compared everywhere else. *)
let unicode_fix_applies input =
  let n = String.length input in
  let rec scan i =
    i + 1 < n
    && ((input.[i] = '\\'
        && input.[i + 1] = 'u'
        &&
        let quad = String.sub input (i + 2) (min 4 (n - i - 2)) in
        String.contains quad '_'
        || String.length quad = 4
           && String.for_all
                (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
                quad
           &&
           let code = int_of_string ("0x" ^ quad) in
           code >= 0xd800 && code <= 0xdfff)
       || scan (i + 1))
  in
  scan 0

let prop_parser_matches_ref =
  QCheck.Test.make ~count:3000 ~name:"Json.of_string = the per-character parser"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_input)
    (fun input ->
      unicode_fix_applies input
      ||
      match (Json.of_string input, Json_ref.of_string input) with
      | Ok got, Ok want -> strict_equal got want
      | Error got, Error want -> String.equal got want
      | Ok _, Error _ | Error _, Ok _ -> false)

let () =
  Alcotest.run "json"
    [
      ( "unit",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "structures" `Quick test_structures;
          Alcotest.test_case "string escapes" `Quick test_string_escapes;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "pretty printing" `Quick test_pretty_printing;
          Alcotest.test_case "non-finite rejected" `Quick test_non_finite_rejected;
          Alcotest.test_case "number edge cases match Printf" `Quick test_number_edges;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [
            prop_roundtrip;
            prop_pretty_roundtrip;
            prop_number_matches_printf;
            prop_params_matches_printf;
            prop_add_string_matches_ref;
            prop_parser_matches_ref;
          ] );
    ]
