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
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [
            prop_roundtrip;
            prop_pretty_roundtrip;
            prop_number_matches_printf;
            prop_params_matches_printf;
          ] );
    ]
