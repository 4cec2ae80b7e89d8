(* Degenerate-input hammering across the public API: the library must
   return sensible values (never crash, never emit NaN) on empty catalogs,
   boundary parameters, constant models and extreme cardinalities. *)

module Model = Stratrec_model
module Params = Model.Params
module Workforce = Model.Workforce
module Rng = Stratrec_util.Rng

let combo = List.hd Model.Dimension.all_combos

let flat_model =
  {
    Model.Linear_model.quality = { Model.Linear_model.alpha = 0.; beta = 0.5 };
    cost = { Model.Linear_model.alpha = 0.; beta = 0.5 };
    latency = { Model.Linear_model.alpha = 0.; beta = 0.5 };
  }

let strategy ?(model = flat_model) id params = Model.Strategy.single ~id combo ~params ~model

let request ?(k = 1) params = Model.Deployment.make ~id:0 ~params ~k ()

let boundary_triples =
  [
    Params.make ~quality:0. ~cost:0. ~latency:0.;
    Params.make ~quality:1. ~cost:1. ~latency:1.;
    Params.make ~quality:0. ~cost:1. ~latency:0.;
    Params.make ~quality:1. ~cost:0. ~latency:1.;
  ]

let test_empty_catalog () =
  let d = request (Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5) in
  Alcotest.(check bool) "adpar" true (Stratrec.Adpar.exact ~strategies:[||] d = None);
  Alcotest.(check bool) "adparb" true
    (Stratrec.Adpar_baselines.brute_force ~strategies:[||] d = None);
  Alcotest.(check bool) "baseline2" true
    (Stratrec.Adpar_baselines.baseline2 ~strategies:[||] d = None);
  Alcotest.(check bool) "baseline3" true
    (Stratrec.Adpar_baselines.baseline3 ~strategies:[||] d = None);
  let report =
    Stratrec.Aggregator.run
      ~availability:(Model.Availability.certain 0.5)
      ~strategies:[||] ~requests:[| d |] ()
  in
  Alcotest.(check int) "aggregator survives" 1 (Array.length report.Stratrec.Aggregator.outcomes)

let test_empty_batch () =
  let strategies = [| strategy 0 (Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5) |] in
  let report =
    Stratrec.Aggregator.run
      ~availability:(Model.Availability.certain 0.5)
      ~strategies ~requests:[||] ()
  in
  Alcotest.(check (float 1e-9)) "zero objective" 0. report.Stratrec.Aggregator.objective_value;
  let matrix = Workforce.compute ~requests:[||] ~strategies () in
  Alcotest.(check int) "no requirement rows" 0 (Array.length matrix.Workforce.cells)

let test_boundary_parameters () =
  (* Every combination of boundary strategy and boundary request must flow
     through ADPaR and the aggregator without NaN. *)
  List.iteri
    (fun i sp ->
      List.iter
        (fun rp ->
          let strategies = [| strategy i sp |] in
          let d = request rp in
          match Stratrec.Adpar.exact ~strategies d with
          | Some r ->
              Alcotest.(check bool) "finite distance" true (Float.is_finite r.Stratrec.Adpar.distance);
              Alcotest.(check bool) "covers one" true (r.Stratrec.Adpar.covered_count >= 1)
          | None -> Alcotest.fail "singleton catalog always admits k=1")
        boundary_triples)
    boundary_triples

let test_constant_models () =
  (* alpha = 0 everywhere: requirements are Always/Never only. *)
  let strategies = [| strategy 0 (Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5) |] in
  let satisfiable = request (Params.make ~quality:0.4 ~cost:0.6 ~latency:0.6) in
  let matrix = Workforce.compute ~requests:[| satisfiable |] ~strategies () in
  (match Workforce.request_requirement matrix Workforce.Max_case ~k:1 0 with
  | Some { Workforce.workforce; _ } ->
      Alcotest.(check (float 1e-9)) "flat model needs no workforce" 0. workforce
  | None -> Alcotest.fail "flat satisfiable model must be feasible");
  (* Thresholds beyond the constant response are infeasible. *)
  let impossible = request (Params.make ~quality:0.9 ~cost:0.6 ~latency:0.6) in
  let matrix = Workforce.compute ~requests:[| impossible |] ~strategies () in
  Alcotest.(check int) "infeasible" 0 (Workforce.feasible_count matrix 0)

let test_zero_workforce_world () =
  let rng = Rng.create 1 in
  let strategies = Model.Workload.strategies rng ~n:30 ~kind:Model.Workload.Uniform in
  let requests = Model.Workload.requests rng ~m:5 ~k:2 in
  let report =
    Stratrec.Aggregator.run
      ~availability:(Model.Availability.certain 0.)
      ~strategies ~requests ()
  in
  Alcotest.(check (float 1e-9)) "nothing spent" 0. report.Stratrec.Aggregator.workforce_used;
  Alcotest.(check bool) "no NaN objective" true
    (Float.is_finite report.Stratrec.Aggregator.objective_value)

let test_huge_k () =
  let rng = Rng.create 2 in
  let strategies = Model.Workload.strategies rng ~n:10 ~kind:Model.Workload.Uniform in
  let d =
    Model.Deployment.make ~id:0
      ~params:(Params.make ~quality:0.1 ~cost:0.9 ~latency:0.9)
      ~k:1000 ()
  in
  Alcotest.(check bool) "k > |S| yields None" true (Stratrec.Adpar.exact ~strategies d = None);
  let matrix = Workforce.compute ~requests:[| d |] ~strategies () in
  Alcotest.(check bool) "no aggregation" true
    (Workforce.request_requirement matrix Workforce.Sum_case ~k:1000 0 = None)

let test_identical_strategies () =
  (* A catalog of clones: ADPaR must still return k distinct entries. *)
  let p = Params.make ~quality:0.8 ~cost:0.4 ~latency:0.3 in
  let strategies = Array.init 5 (fun i -> strategy i p) in
  let d = request ~k:4 (Params.make ~quality:0.9 ~cost:0.2 ~latency:0.2) in
  match Stratrec.Adpar.exact ~strategies d with
  | Some r ->
      let ids =
        List.map (fun s -> s.Model.Strategy.id) r.Stratrec.Adpar.recommended
        |> List.sort_uniq compare
      in
      Alcotest.(check int) "four distinct clones" 4 (List.length ids);
      Alcotest.(check int) "all five covered" 5 r.Stratrec.Adpar.covered_count
  | None -> Alcotest.fail "expected a result"

let test_stats_edge () =
  Alcotest.(check bool) "t_cdf at huge t" true (Stratrec_util.Stats.t_cdf ~df:5. 1e8 > 0.999999);
  Alcotest.(check bool) "t_cdf at -huge t" true (Stratrec_util.Stats.t_cdf ~df:5. (-1e8) < 1e-6);
  Alcotest.(check bool) "incomplete beta boundary" true
    (Stratrec_util.Stats.incomplete_beta ~a:0.5 ~b:0.5 ~x:1e-12 >= 0.)

let () =
  Alcotest.run "edge_cases"
    [
      ( "edge cases",
        [
          Alcotest.test_case "empty catalog" `Quick test_empty_catalog;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "boundary parameters" `Quick test_boundary_parameters;
          Alcotest.test_case "constant models" `Quick test_constant_models;
          Alcotest.test_case "zero workforce" `Quick test_zero_workforce_world;
          Alcotest.test_case "huge k" `Quick test_huge_k;
          Alcotest.test_case "identical strategies" `Quick test_identical_strategies;
          Alcotest.test_case "stats extremes" `Quick test_stats_edge;
        ] );
    ]
