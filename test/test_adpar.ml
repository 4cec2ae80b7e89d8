(* Unit and property tests for ADPaR-Exact (Theorem 4): validated against
   the exponential ADPaRB on random instances, plus structural invariants of
   the returned alternative. *)

module Model = Stratrec_model
module Params = Model.Params
module Strategy = Model.Strategy
module Deployment = Model.Deployment
module Rng = Stratrec_util.Rng
module Adpar = Stratrec.Adpar
module AB = Stratrec.Adpar_baselines

let combo = List.hd Model.Dimension.all_combos
let dummy_model = Model.Linear_model.synthetic (Rng.create 0)

let strategy id (q, c, l) =
  Strategy.single ~id combo ~params:(Params.make ~quality:q ~cost:c ~latency:l)
    ~model:dummy_model

let catalog triples = Array.of_list (List.mapi strategy triples)

let request ?(k = 3) (q, c, l) =
  Deployment.make ~id:0 ~params:(Params.make ~quality:q ~cost:c ~latency:l) ~k ()

let test_too_few_strategies () =
  let strategies = catalog [ (0.5, 0.5, 0.5) ] in
  Alcotest.(check bool) "None when |S| < k" true
    (Adpar.exact ~strategies (request ~k:2 (0.5, 0.5, 0.5)) = None)

let test_zero_distance_when_satisfiable () =
  let strategies = catalog [ (0.9, 0.1, 0.1); (0.8, 0.2, 0.2); (0.7, 0.3, 0.3) ] in
  match Adpar.exact ~strategies (request ~k:3 (0.6, 0.5, 0.5)) with
  | Some r ->
      Alcotest.(check (float 1e-12)) "distance 0" 0. r.Adpar.distance;
      Alcotest.(check bool) "alternative equals request" true
        (Params.l2_distance r.Adpar.alternative
           (Params.make ~quality:0.6 ~cost:0.5 ~latency:0.5)
        < 1e-12);
      Alcotest.(check int) "k recommended" 3 (List.length r.Adpar.recommended)
  | None -> Alcotest.fail "expected a result"

let test_single_axis_relaxation () =
  (* Only cost needs to move: the optimum relaxes cost alone. *)
  let strategies = catalog [ (0.9, 0.4, 0.1); (0.8, 0.5, 0.2) ] in
  match Adpar.exact ~strategies (request ~k:2 (0.7, 0.2, 0.5)) with
  | Some r ->
      Alcotest.(check (float 1e-9)) "quality kept" 0.7 r.Adpar.alternative.Params.quality;
      Alcotest.(check (float 1e-9)) "cost relaxed to 2nd smallest" 0.5
        r.Adpar.alternative.Params.cost;
      Alcotest.(check (float 1e-9)) "latency kept" 0.5 r.Adpar.alternative.Params.latency;
      Alcotest.(check (float 1e-9)) "distance" 0.3 r.Adpar.distance
  | None -> Alcotest.fail "expected a result"

let test_multi_axis_tradeoff () =
  (* Covering 2 strategies requires either a big cost move or a mixed
     quality+latency move; the optimizer must pick the cheaper mix. *)
  let strategies = catalog [ (0.9, 0.9, 0.1); (0.85, 0.15, 0.35) ] in
  let d = request ~k:2 (0.9, 0.2, 0.3) in
  match (Adpar.exact ~strategies d, AB.brute_force ~strategies d) with
  | Some r, Some b ->
      Alcotest.(check (float 1e-9)) "matches brute force" b.Adpar.distance r.Adpar.distance;
      (* Optimal: quality 0.9->0.85 (0.05), cost 0.2->0.9?? vs latency...
         the simple checks: both strategies covered. *)
      Alcotest.(check int) "covers 2" 2 (List.length r.Adpar.recommended)
  | _ -> Alcotest.fail "expected results"

let test_covers_helper () =
  let alternative = Params.make ~quality:0.6 ~cost:0.5 ~latency:0.5 in
  Alcotest.(check bool) "covered" true
    (Adpar.covers ~alternative (strategy 0 (0.7, 0.4, 0.5)));
  Alcotest.(check bool) "not covered" false
    (Adpar.covers ~alternative (strategy 0 (0.5, 0.4, 0.5)))

let test_trace_structure () =
  let strategies = catalog [ (0.9, 0.4, 0.1); (0.8, 0.5, 0.2); (0.7, 0.6, 0.3) ] in
  match Adpar.exact_with_trace ~strategies (request ~k:2 (0.95, 0.1, 0.1)) with
  | None -> Alcotest.fail "expected a trace"
  | Some (result, trace) ->
      Alcotest.(check int) "one relaxation row per strategy" 3
        (List.length trace.Adpar.relaxations);
      Alcotest.(check int) "3|S| events" 9 (List.length trace.Adpar.events);
      (* Events ascend by value. *)
      let values = List.map (fun (e : Adpar.event) -> e.Adpar.value) trace.Adpar.events in
      Alcotest.(check bool) "events sorted" true (List.sort compare values = values);
      Alcotest.(check int) "three sweep orders" 3 (List.length trace.Adpar.sweep_orders);
      (* Recommended strategies are covered on all axes in the matrix M. *)
      List.iter
        (fun s ->
          match List.find_opt (fun (id, _, _, _) -> id = s.Strategy.id) trace.Adpar.coverage with
          | Some (_, q, c, l) -> Alcotest.(check bool) "covered in M" true (q && c && l)
          | None -> Alcotest.fail "missing coverage row")
        result.Adpar.recommended

(* Random instance generators. *)
let tri_gen = QCheck.(triple (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.))

let gen_catalog_and_request =
  QCheck.(pair (list_of_size Gen.(1 -- 12) tri_gen) (pair (int_range 1 4) tri_gen))

let prop_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"ADPaR-Exact distance equals ADPaRB (Theorem 4)"
    gen_catalog_and_request
    (fun (triples, (k, rq)) ->
      let strategies = catalog triples in
      let d = request ~k rq in
      match (Adpar.exact ~strategies d, AB.brute_force ~strategies d) with
      | None, None -> true
      | Some r, Some b -> Float.abs (r.Adpar.distance -. b.Adpar.distance) < 1e-9
      | _ -> false)

let prop_result_covers_k =
  QCheck.Test.make ~count:300 ~name:"returned alternative admits k strategies"
    gen_catalog_and_request
    (fun (triples, (k, rq)) ->
      let strategies = catalog triples in
      let d = request ~k rq in
      match Adpar.exact ~strategies d with
      | None -> List.length triples < k
      | Some r ->
          List.length r.Adpar.recommended = k
          && r.Adpar.covered_count >= k
          && List.for_all (Adpar.covers ~alternative:r.Adpar.alternative) r.Adpar.recommended)

let prop_never_tightens =
  QCheck.Test.make ~count:300 ~name:"alternative only relaxes the request"
    gen_catalog_and_request
    (fun (triples, (k, rq)) ->
      let strategies = catalog triples in
      let d = request ~k rq in
      match Adpar.exact ~strategies d with
      | None -> true
      | Some r ->
          let a = r.Adpar.alternative and p = d.Deployment.params in
          a.Params.quality <= p.Params.quality +. 1e-12
          && a.Params.cost +. 1e-12 >= p.Params.cost
          && a.Params.latency +. 1e-12 >= p.Params.latency)

let prop_distance_consistent =
  QCheck.Test.make ~count:300 ~name:"reported distance equals parameter distance"
    gen_catalog_and_request
    (fun (triples, (k, rq)) ->
      let strategies = catalog triples in
      let d = request ~k rq in
      match Adpar.exact ~strategies d with
      | None -> true
      | Some r ->
          Float.abs (r.Adpar.distance -. Params.l2_distance r.Adpar.alternative d.Deployment.params)
          < 1e-9)

let prop_monotone_in_k =
  QCheck.Test.make ~count:200 ~name:"distance grows with k"
    QCheck.(pair (list_of_size Gen.(4 -- 12) tri_gen) tri_gen)
    (fun (triples, rq) ->
      let strategies = catalog triples in
      let dist k =
        match Adpar.exact ~k ~strategies (request ~k rq) with
        | Some r -> r.Adpar.distance
        | None -> infinity
      in
      dist 1 <= dist 2 +. 1e-9 && dist 2 <= dist 3 +. 1e-9)

let () =
  Alcotest.run "adpar"
    [
      ( "unit",
        [
          Alcotest.test_case "too few strategies" `Quick test_too_few_strategies;
          Alcotest.test_case "zero distance when satisfiable" `Quick
            test_zero_distance_when_satisfiable;
          Alcotest.test_case "single-axis relaxation" `Quick test_single_axis_relaxation;
          Alcotest.test_case "multi-axis tradeoff" `Quick test_multi_axis_tradeoff;
          Alcotest.test_case "covers helper" `Quick test_covers_helper;
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [
            prop_matches_brute_force;
            prop_result_covers_k;
            prop_never_tightens;
            prop_distance_consistent;
            prop_monotone_in_k;
          ] );
    ]
