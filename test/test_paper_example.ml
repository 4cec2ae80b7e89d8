(* Integration tests on the paper's running example (Example 1, Table 1):
   the worked outcomes in §2.2, §2.3 and §4 must be reproduced exactly. *)

module Params = Stratrec_model.Params
module Deployment = Stratrec_model.Deployment
module Strategy = Stratrec_model.Strategy
module Workforce = Stratrec_model.Workforce
module Paper_example = Stratrec_model.Paper_example
module Availability = Stratrec_model.Availability

let strategy_ids = List.map (fun s -> s.Strategy.id)

(* Strategies satisfying the request's thresholds, in catalog order. *)
let candidates d strategies = List.filter (Deployment.satisfied_by d) (Array.to_list strategies)

let check_float = Alcotest.(check (float 1e-9))

let test_availability_expectation () =
  (* 50% of 0.7 + 50% of 0.9 = 0.8 (§2.2). *)
  check_float "expected availability" 0.8 (Availability.expected (Paper_example.availability ()))

let test_d3_candidates () =
  (* d3 admits exactly {s2, s3, s4} (§2.3). *)
  let d3 = Paper_example.request 3 in
  let candidates = candidates d3 (Paper_example.strategies ()) in
  Alcotest.(check (list int)) "candidates of d3" [ 2; 3; 4 ] (strategy_ids candidates)

let test_d1_d2_have_no_candidates () =
  let strategies = Paper_example.strategies () in
  List.iter
    (fun i ->
      let d = Paper_example.request i in
      Alcotest.(check (list int))
        (Printf.sprintf "candidates of d%d" i)
        []
        (strategy_ids (candidates d strategies)))
    [ 1; 2 ]

let test_instantiation_matches_table1 () =
  (* Re-estimating parameters at the expected availability (0.8) must give
     back the Table 1 triples. *)
  let w = Availability.expected (Paper_example.availability ()) in
  Array.iter
    (fun s ->
      let s' = Strategy.instantiate s ~availability:w in
      Alcotest.(check bool)
        (Printf.sprintf "params of %s stable" s.Strategy.label)
        true
        (Params.l2_distance s.Strategy.params s'.Strategy.params < 1e-9))
    (Paper_example.strategies ())

let test_aggregator_satisfies_only_d3 () =
  let report =
    Stratrec.Aggregator.run
      ~availability:(Paper_example.availability ())
      ~strategies:(Paper_example.strategies ())
      ~requests:(Paper_example.requests ())
      ()
  in
  let satisfied = Stratrec.Aggregator.satisfied report in
  Alcotest.(check int) "exactly one satisfied" 1 (List.length satisfied);
  let d, recommended = List.hd satisfied in
  Alcotest.(check int) "d3 satisfied" 3 d.Deployment.id;
  Alcotest.(check (list int))
    "recommended strategies" [ 2; 3; 4 ]
    (List.sort compare (strategy_ids recommended));
  (* d1 and d2 fall through to ADPaR. *)
  let alternatives = Stratrec.Aggregator.alternatives report in
  Alcotest.(check (list int))
    "alternative requests" [ 1; 2 ]
    (List.sort compare (List.map (fun (d, _) -> d.Deployment.id) alternatives))

let test_adpar_d1 () =
  (* §2.3: d1 = (0.4, 0.17, 0.28) gets alternative (0.4, 0.5, 0.28) with
     strategies s1, s2, s3. *)
  let d1 = Paper_example.request 1 in
  match Stratrec.Adpar.exact ~strategies:(Paper_example.strategies ()) d1 with
  | None -> Alcotest.fail "ADPaR returned no result for d1"
  | Some r ->
      check_float "quality" 0.4 r.Stratrec.Adpar.alternative.Params.quality;
      check_float "cost" 0.5 r.Stratrec.Adpar.alternative.Params.cost;
      check_float "latency" 0.28 r.Stratrec.Adpar.alternative.Params.latency;
      check_float "distance" 0.33 r.Stratrec.Adpar.distance;
      Alcotest.(check (list int))
        "strategies" [ 1; 2; 3 ]
        (List.sort compare (strategy_ids r.Stratrec.Adpar.recommended))

let test_adpar_d2 () =
  (* §4.1 claims (0.75, 0.5, 0.28) for d2, but that triple covers only s2
     and s3; the true optimum — confirmed by brute force — is
     (0.75, 0.58, 0.28) admitting {s2, s3, s4} at distance
     sqrt(0.05^2 + 0.38^2). We assert optimality rather than the paper's
     inconsistent literal. *)
  let d2 = Paper_example.request 2 in
  let strategies = Paper_example.strategies () in
  match
    ( Stratrec.Adpar.exact ~strategies d2,
      Stratrec.Adpar_baselines.brute_force ~strategies d2 )
  with
  | Some r, Some b ->
      check_float "quality" 0.75 r.Stratrec.Adpar.alternative.Params.quality;
      check_float "cost" 0.58 r.Stratrec.Adpar.alternative.Params.cost;
      check_float "latency" 0.28 r.Stratrec.Adpar.alternative.Params.latency;
      check_float "matches brute force" b.Stratrec.Adpar.distance r.Stratrec.Adpar.distance;
      check_float "distance" (sqrt ((0.05 *. 0.05) +. (0.38 *. 0.38))) r.Stratrec.Adpar.distance;
      Alcotest.(check (list int))
        "strategies" [ 2; 3; 4 ]
        (List.sort compare (strategy_ids r.Stratrec.Adpar.recommended))
  | _ -> Alcotest.fail "ADPaR returned no result for d2"

let test_d3_workforce_requirements () =
  (* With the illustrative models, s2's latency threshold binds d3 at
     exactly the expected availability 0.8, so the Max-case aggregation
     fits W = 0.8 while the Sum-case cannot. *)
  let requests = Paper_example.requests () in
  let strategies = Paper_example.strategies () in
  let matrix = Workforce.compute ~requests ~strategies () in
  (match Workforce.request_requirement matrix Workforce.Max_case ~k:3 2 with
  | None -> Alcotest.fail "d3 should have a Max-case requirement"
  | Some { Workforce.workforce; chosen } ->
      check_float "max-case workforce" 0.8 workforce;
      Alcotest.(check int) "three strategies chosen" 3 (List.length chosen));
  match Workforce.request_requirement matrix Workforce.Sum_case ~k:3 2 with
  | None -> Alcotest.fail "d3 should have a Sum-case requirement"
  | Some { Workforce.workforce; _ } ->
      Alcotest.(check bool) "sum-case exceeds availability" true (workforce > 0.8)

let test_trace_relaxations_d2 () =
  (* Step 1 of ADPaR-Exact for d2 (the paper's Table 3, with the quality
     and cost columns under their correct headers). *)
  let d2 = Paper_example.request 2 in
  let strategies = Paper_example.strategies () in
  match Stratrec.Adpar.exact_with_trace ~strategies d2 with
  | None -> Alcotest.fail "no trace for d2"
  | Some (_, trace) ->
      let r1 = List.nth trace.Stratrec.Adpar.relaxations 0 in
      check_float "s1 quality relaxation" 0.3 r1.Stratrec.Adpar.quality;
      check_float "s1 cost relaxation" 0.05 r1.Stratrec.Adpar.cost;
      check_float "s1 latency relaxation" 0. r1.Stratrec.Adpar.latency;
      let r2 = List.nth trace.Stratrec.Adpar.relaxations 1 in
      check_float "s2 quality relaxation" 0.05 r2.Stratrec.Adpar.quality;
      check_float "s2 cost relaxation" 0.13 r2.Stratrec.Adpar.cost;
      let r4 = List.nth trace.Stratrec.Adpar.relaxations 3 in
      check_float "s4 quality relaxation" 0. r4.Stratrec.Adpar.quality;
      check_float "s4 cost relaxation" 0.38 r4.Stratrec.Adpar.cost

let () =
  Alcotest.run "paper_example"
    [
      ( "example1",
        [
          Alcotest.test_case "availability expectation" `Quick test_availability_expectation;
          Alcotest.test_case "d3 candidates" `Quick test_d3_candidates;
          Alcotest.test_case "d1/d2 have no candidates" `Quick test_d1_d2_have_no_candidates;
          Alcotest.test_case "instantiation matches Table 1" `Quick
            test_instantiation_matches_table1;
          Alcotest.test_case "aggregator satisfies only d3" `Quick
            test_aggregator_satisfies_only_d3;
          Alcotest.test_case "ADPaR alternative for d1" `Quick test_adpar_d1;
          Alcotest.test_case "ADPaR alternative for d2" `Quick test_adpar_d2;
          Alcotest.test_case "d3 workforce requirements" `Quick test_d3_workforce_requirements;
          Alcotest.test_case "trace relaxations for d2" `Quick test_trace_relaxations_d2;
        ] );
    ]
