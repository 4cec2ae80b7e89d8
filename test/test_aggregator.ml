(* Integration tests for the StratRec Aggregator pipeline on synthetic
   workloads. *)

module Model = Stratrec_model
module Params = Model.Params
module Deployment = Model.Deployment
module Rng = Stratrec_util.Rng
module A = Stratrec.Aggregator

let setup seed =
  let rng = Rng.create seed in
  let strategies = Model.Workload.strategies rng ~n:60 ~kind:Model.Workload.Uniform in
  let requests = Model.Workload.requests rng ~m:8 ~k:3 in
  let availability = Model.Availability.certain 0.9 in
  (strategies, requests, availability)

let config =
  {
    A.default_config with
    A.inversion_rule = `Paper_equality;
    reestimate_parameters = false;
  }

let test_report_structure () =
  let strategies, requests, availability = setup 1 in
  let report = A.run ~config ~availability ~strategies ~requests () in
  Alcotest.(check int) "one outcome per request" 8 (Array.length report.A.outcomes);
  Alcotest.(check (float 1e-9)) "availability" 0.9 report.A.availability;
  Array.iteri
    (fun i (d, _) -> Alcotest.(check int) "input order" i d.Deployment.id)
    report.A.outcomes

let test_satisfied_recommendations_are_valid () =
  let strategies, requests, availability = setup 2 in
  let report = A.run ~config ~availability ~strategies ~requests () in
  List.iter
    (fun (d, recommended) ->
      Alcotest.(check int) "k strategies" d.Deployment.k (List.length recommended);
      List.iter
        (fun s ->
          Alcotest.(check bool) "each satisfies" true (Deployment.satisfied_by d s))
        recommended)
    (A.satisfied report)

let test_unsatisfied_get_alternatives () =
  let strategies, requests, availability = setup 3 in
  let report = A.run ~config ~availability ~strategies ~requests () in
  let satisfied = List.length (A.satisfied report) in
  let alternatives = List.length (A.alternatives report) in
  let limited = List.length (A.workforce_limited report) in
  let none =
    Array.to_list report.A.outcomes
    |> List.filter (fun (_, o) -> o = A.No_alternative)
    |> List.length
  in
  Alcotest.(check int) "partition" 8 (satisfied + alternatives + limited + none);
  (* With 60 strategies and k = 3 an alternative always exists. *)
  Alcotest.(check int) "no dead ends" 0 none;
  (* Every reported alternative is a genuine move (distance > 0); requests
     whose parameters were fine are reported as workforce-limited. *)
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "real alternative" true (r.Stratrec.Adpar.distance > 0.))
    (A.alternatives report)

let test_workforce_budget () =
  let strategies, requests, availability = setup 4 in
  let report = A.run ~config ~availability ~strategies ~requests () in
  Alcotest.(check bool) "budget respected" true
    (report.A.workforce_used <= report.A.availability +. 1e-9)

let test_payoff_objective_counts_cost () =
  let strategies, requests, availability = setup 6 in
  let payoff_config = { config with A.objective = Stratrec.Objective.Payoff } in
  let report = A.run ~config:payoff_config ~availability ~strategies ~requests () in
  let expected =
    List.fold_left (fun acc (d, _) -> acc +. Deployment.payoff d) 0. (A.satisfied report)
  in
  Alcotest.(check (float 1e-9)) "objective is satisfied payoff" expected
    report.A.objective_value

let test_reestimation_changes_params () =
  let strategies, requests, _ = setup 7 in
  let low = Model.Availability.certain 0.1 in
  let report =
    A.run
      ~config:{ config with A.reestimate_parameters = true }
      ~availability:low ~strategies ~requests ()
  in
  (* At availability 0.1 the synthetic models (alpha >= 0.5, beta = 1-alpha)
     give parameter values around 1 - 0.9 alpha: quality drops and the
     re-estimated catalog must differ from the raw one. *)
  let changed = ref false in
  Array.iteri
    (fun i s ->
      if not (Params.equal s.Model.Strategy.params strategies.(i).Model.Strategy.params) then
        changed := true)
    report.A.strategies;
  Alcotest.(check bool) "parameters re-estimated" true !changed

let prop_accounting_consistent =
  QCheck.Test.make ~count:150 ~name:"workforce_used equals the sum over satisfied requests"
    QCheck.(pair small_int (float_range 0.3 1.))
    (fun (seed, w) ->
      let rng = Rng.create seed in
      let strategies = Model.Workload.strategies rng ~n:50 ~kind:Model.Workload.Uniform in
      let requests = Model.Workload.requests rng ~m:6 ~k:3 in
      let report =
        A.run ~config ~availability:(Model.Availability.certain w) ~strategies ~requests ()
      in
      let satisfied_total =
        Array.to_list report.A.outcomes
        |> List.fold_left
             (fun acc (_, outcome) ->
               match outcome with
               | A.Satisfied { workforce; _ } -> acc +. workforce
               | A.Alternative _ | A.Workforce_limited | A.No_alternative -> acc)
             0.
      in
      Float.abs (satisfied_total -. report.A.workforce_used) < 1e-9
      && report.A.workforce_used <= w +. 1e-9)

let prop_satisfied_monotone_in_availability =
  QCheck.Test.make ~count:100 ~name:"more workforce never satisfies fewer requests"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let strategies = Model.Workload.strategies rng ~n:50 ~kind:Model.Workload.Uniform in
      let requests = Model.Workload.requests rng ~m:6 ~k:3 in
      let count w =
        let report =
          A.run ~config ~availability:(Model.Availability.certain w) ~strategies ~requests ()
        in
        List.length (A.satisfied report)
      in
      count 0.4 <= count 0.7 && count 0.7 <= count 1.0)

let prop_outcomes_partition =
  QCheck.Test.make ~count:150 ~name:"every request gets exactly one outcome kind"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let strategies = Model.Workload.strategies rng ~n:30 ~kind:Model.Workload.Normal in
      let requests = Model.Workload.requests rng ~m:8 ~k:4 in
      let report =
        A.run ~config ~availability:(Model.Availability.certain 0.8) ~strategies ~requests ()
      in
      let s = List.length (A.satisfied report) in
      let a = List.length (A.alternatives report) in
      let l = List.length (A.workforce_limited report) in
      let n =
        Array.to_list report.A.outcomes
        |> List.filter (fun (_, o) -> o = A.No_alternative)
        |> List.length
      in
      s + a + l + n = 8)

let () =
  Alcotest.run "aggregator"
    [
      ( "aggregator",
        [
          Alcotest.test_case "report structure" `Quick test_report_structure;
          Alcotest.test_case "satisfied recommendations valid" `Quick
            test_satisfied_recommendations_are_valid;
          Alcotest.test_case "unsatisfied get alternatives" `Quick
            test_unsatisfied_get_alternatives;
          Alcotest.test_case "workforce budget" `Quick test_workforce_budget;
          Alcotest.test_case "payoff objective" `Quick test_payoff_objective_counts_cost;
          Alcotest.test_case "re-estimation" `Quick test_reestimation_changes_params;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [
            prop_accounting_consistent;
            prop_satisfied_monotone_in_availability;
            prop_outcomes_partition;
          ] );
    ]
