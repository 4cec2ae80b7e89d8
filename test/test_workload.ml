(* Unit tests for the §5.2.2 synthetic workload generators. *)

module Rng = Stratrec_util.Rng
module Model = Stratrec_model
module Params = Model.Params
module Workload = Model.Workload

let test_strategy_ranges_uniform () =
  let rng = Rng.create 1 in
  let strategies = Workload.strategies rng ~n:200 ~kind:Workload.Uniform in
  Alcotest.(check int) "count" 200 (Array.length strategies);
  Array.iter
    (fun s ->
      let p = s.Model.Strategy.params in
      List.iter
        (fun axis ->
          let v = Params.get p axis in
          Alcotest.(check bool) "uniform in [0.5,1]" true (v >= 0.5 && v <= 1.))
        Params.all_axes)
    strategies

let test_strategy_ranges_normal () =
  let rng = Rng.create 2 in
  let strategies = Workload.strategies rng ~n:300 ~kind:Workload.Normal in
  let values =
    Array.to_list strategies
    |> List.concat_map (fun s ->
           List.map (Params.get s.Model.Strategy.params) Params.all_axes)
  in
  List.iter
    (fun v -> Alcotest.(check bool) "in [0,1]" true (v >= 0. && v <= 1.))
    values;
  let mean = List.fold_left ( +. ) 0. values /. float_of_int (List.length values) in
  Alcotest.(check bool) "mean near 0.75" true (Float.abs (mean -. 0.75) < 0.02)

let test_strategy_ids_and_labels () =
  let rng = Rng.create 3 in
  let strategies = Workload.strategies rng ~n:20 ~kind:Workload.Uniform in
  Array.iteri (fun i s -> Alcotest.(check int) "sequential ids" i s.Model.Strategy.id) strategies;
  (* Stage combos cycle through all 8. *)
  let distinct_stage_labels =
    Array.to_list strategies
    |> List.map (fun s -> List.map Model.Dimension.combo_label s.Model.Strategy.stages)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "8 distinct stages" 8 (List.length distinct_stage_labels)

let test_request_ranges () =
  let rng = Rng.create 4 in
  let requests = Workload.requests rng ~m:200 ~k:7 in
  Alcotest.(check int) "count" 200 (Array.length requests);
  Array.iter
    (fun d ->
      let p = d.Model.Deployment.params in
      Alcotest.(check int) "k stored" 7 d.Model.Deployment.k;
      (* Generous thresholds: quality lower bound <= 0.375, cost and
         latency budgets >= 0.625. *)
      Alcotest.(check bool) "quality" true (p.Params.quality >= 0. && p.Params.quality <= 0.375);
      Alcotest.(check bool) "cost" true (p.Params.cost >= 0.625 && p.Params.cost <= 1.);
      Alcotest.(check bool) "latency" true (p.Params.latency >= 0.625 && p.Params.latency <= 1.))
    requests

let test_determinism () =
  let gen seed =
    let rng = Rng.create seed in
    Workload.strategies rng ~n:5 ~kind:Workload.Uniform
    |> Array.map (fun s -> s.Model.Strategy.params)
  in
  let a = gen 42 and b = gen 42 and c = gen 43 in
  Alcotest.(check bool) "same seed same params" true
    (Array.for_all2 Params.equal a b);
  Alcotest.(check bool) "different seed differs" true
    (not (Array.for_all2 Params.equal a c))

let test_models_are_synthetic () =
  let rng = Rng.create 5 in
  let strategies = Workload.strategies rng ~n:50 ~kind:Workload.Uniform in
  Array.iter
    (fun s ->
      List.iter
        (fun axis ->
          let c = Model.Linear_model.coeffs s.Model.Strategy.model axis in
          Alcotest.(check bool) "alpha range" true
            (c.Model.Linear_model.alpha >= 0.5 && c.Model.Linear_model.alpha <= 1.);
          Alcotest.(check (float 1e-12)) "beta complement" (1. -. c.Model.Linear_model.alpha)
            c.Model.Linear_model.beta)
        Params.all_axes)
    strategies

let test_workflows () =
  let rng = Rng.create 6 in
  let flows = Workload.workflows rng ~n:100 ~stages:3 ~kind:Workload.Uniform in
  Alcotest.(check int) "count" 100 (Array.length flows);
  Array.iter
    (fun s ->
      Alcotest.(check int) "3 stages" 3 (List.length s.Model.Strategy.stages);
      List.iter
        (fun axis ->
          let v = Params.get s.Model.Strategy.params axis in
          Alcotest.(check bool) "params in [0,1]" true (v >= 0. && v <= 1.))
        Params.all_axes)
    flows;
  Alcotest.check_raises "stages >= 1"
    (Invalid_argument "Workload.workflows: stages must be >= 1") (fun () ->
      ignore (Workload.workflows rng ~n:1 ~stages:0 ~kind:Workload.Uniform))

let test_workflow_quality_composes_down () =
  (* The geometric mean of several uniform draws is below the mean of one
     draw: multi-stage workflows should have lower average quality than
     single-stage strategies from the same distribution. *)
  let rng = Rng.create 7 in
  let mean_quality arr =
    Array.to_list arr
    |> List.map (fun s -> s.Model.Strategy.params.Params.quality)
    |> fun l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let single = Workload.strategies rng ~n:400 ~kind:Workload.Uniform in
  let multi = Workload.workflows rng ~n:400 ~stages:4 ~kind:Workload.Uniform in
  Alcotest.(check bool) "compounding drags quality" true
    (mean_quality multi <= mean_quality single)

let () =
  Alcotest.run "workload"
    [
      ( "workload",
        [
          Alcotest.test_case "uniform strategy ranges" `Quick test_strategy_ranges_uniform;
          Alcotest.test_case "normal strategy ranges" `Quick test_strategy_ranges_normal;
          Alcotest.test_case "ids and stage cycling" `Quick test_strategy_ids_and_labels;
          Alcotest.test_case "request ranges" `Quick test_request_ranges;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "synthetic models" `Quick test_models_are_synthetic;
          Alcotest.test_case "workflows" `Quick test_workflows;
          Alcotest.test_case "workflow quality composes" `Quick
            test_workflow_quality_composes_down;
        ] );
    ]
