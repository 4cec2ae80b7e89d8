(* Unit and property tests for the model JSON codecs. *)

module Model = Stratrec_model
module Codec = Model.Codec
module Params = Model.Params
module Json = Stratrec_util.Json
module Rng = Stratrec_util.Rng

let params_roundtrip p =
  match Codec.params_of_json (Codec.params_to_json p) with
  | Ok p' -> Params.equal p p'
  | Error _ -> false

let test_params () =
  let p = Params.make ~quality:0.4 ~cost:0.17 ~latency:0.28 in
  Alcotest.(check bool) "roundtrip" true (params_roundtrip p);
  (match Codec.params_of_json (Json.Object [ ("quality", Json.Number 0.5) ]) with
  | Error e -> Alcotest.(check bool) "mentions missing field" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "should reject missing fields");
  match
    Codec.params_of_json
      (Json.Object
         [
           ("quality", Json.Number 1.5);
           ("cost", Json.Number 0.5);
           ("latency", Json.Number 0.5);
         ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject out-of-range values"

let test_params_compact_string () =
  (* The "QUALITY,COST,LATENCY" spelling shared with the CLI's --request. *)
  (match Codec.params_of_json (Json.String "0.4,0.17,0.28") with
  | Ok p ->
      Alcotest.(check bool) "decodes the compact form" true
        (Params.equal p (Params.make ~quality:0.4 ~cost:0.17 ~latency:0.28))
  | Error e -> Alcotest.failf "compact form rejected: %s" e);
  match Codec.params_of_json (Json.String "0.4,0.17") with
  | Error e ->
      Alcotest.(check bool) "error carries the offending string" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "should reject a two-component string"

let test_strategy_roundtrip () =
  let rng = Rng.create 1 in
  let strategies = Model.Workload.workflows rng ~n:20 ~stages:2 ~kind:Model.Workload.Uniform in
  Array.iter
    (fun s ->
      match Codec.strategy_of_json (Codec.strategy_to_json s) with
      | Ok s' ->
          Alcotest.(check int) "id" s.Model.Strategy.id s'.Model.Strategy.id;
          Alcotest.(check string) "label" s.Model.Strategy.label s'.Model.Strategy.label;
          Alcotest.(check int) "stages" (List.length s.Model.Strategy.stages)
            (List.length s'.Model.Strategy.stages);
          Alcotest.(check bool) "params" true
            (Params.equal s.Model.Strategy.params s'.Model.Strategy.params)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    strategies

let test_deployment_roundtrip () =
  let d =
    Model.Deployment.make ~id:7 ~label:"my request"
      ~params:(Params.make ~quality:0.7 ~cost:0.8 ~latency:0.9)
      ~k:4 ()
  in
  match Codec.deployment_of_json (Codec.deployment_to_json d) with
  | Ok d' ->
      Alcotest.(check int) "id" 7 d'.Model.Deployment.id;
      Alcotest.(check string) "label" "my request" d'.Model.Deployment.label;
      Alcotest.(check int) "k" 4 d'.Model.Deployment.k
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_catalog_and_requests () =
  let rng = Rng.create 2 in
  let strategies = Model.Workload.strategies rng ~n:15 ~kind:Model.Workload.Normal in
  let requests = Model.Workload.requests rng ~m:6 ~k:3 in
  (match Codec.catalog_of_json (Codec.catalog_to_json strategies) with
  | Ok decoded -> Alcotest.(check int) "catalog size" 15 (Array.length decoded)
  | Error e -> Alcotest.failf "catalog decode failed: %s" e);
  Array.iter
    (fun d ->
      match Codec.deployment_of_json (Codec.deployment_to_json d) with
      | Ok d' ->
          Alcotest.(check bool) "params equal" true
            (Params.equal d'.Model.Deployment.params d.Model.Deployment.params)
      | Error e -> Alcotest.failf "request decode failed: %s" e)
    requests

let test_error_paths () =
  let bad_stage =
    Json.Object
      [
        ("id", Json.Number 1.);
        ("label", Json.String "x");
        ("stages", Json.List [ Json.String "NOT-A-COMBO" ]);
        ( "params",
          Codec.params_to_json (Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5) );
        ("model", Codec.model_to_json (Model.Linear_model.synthetic (Rng.create 3)));
      ]
  in
  (match Codec.strategy_of_json bad_stage with
  | Error e -> Alcotest.(check bool) "mentions the combo" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "should reject unknown combos");
  match Codec.catalog_of_json (Json.Object [ ("strategies", Json.List [ Json.Null ]) ]) with
  | Error e ->
      (* Errors are indexed into the array. *)
      Alcotest.(check bool) "indexed error" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "should reject null entries"

let test_file_helpers () =
  let path = Filename.temp_file "stratrec_codec" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let rng = Rng.create 4 in
      let strategies = Model.Workload.strategies rng ~n:5 ~kind:Model.Workload.Uniform in
      Codec.save ~path (Codec.catalog_to_json strategies);
      match Codec.load ~path with
      | Ok json -> (
          match Codec.catalog_of_json json with
          | Ok decoded -> Alcotest.(check int) "size survives disk" 5 (Array.length decoded)
          | Error e -> Alcotest.failf "decode failed: %s" e)
      | Error e -> Alcotest.failf "load failed: %s" e);
  match Codec.load ~path:"/nonexistent/path.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file should be an error"

let prop_strategy_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random strategies roundtrip" QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let s = (Model.Workload.strategies rng ~n:1 ~kind:Model.Workload.Uniform).(0) in
      match Codec.strategy_of_json (Codec.strategy_to_json s) with
      | Ok s' ->
          Params.equal s.Model.Strategy.params s'.Model.Strategy.params
          && s.Model.Strategy.id = s'.Model.Strategy.id
      | Error _ -> false)

let () =
  Alcotest.run "codec"
    [
      ( "codec",
        [
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "params compact string" `Quick test_params_compact_string;
          Alcotest.test_case "strategy roundtrip" `Quick test_strategy_roundtrip;
          Alcotest.test_case "deployment roundtrip" `Quick test_deployment_roundtrip;
          Alcotest.test_case "catalog and requests" `Quick test_catalog_and_requests;
          Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "file helpers" `Quick test_file_helpers;
          Tq.to_alcotest prop_strategy_roundtrip;
        ] );
    ]
