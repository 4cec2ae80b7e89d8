(* Unit and property tests for BatchStrat and the batch baselines:
   Theorem 2 (throughput exactness) and Theorem 3 (pay-off
   1/2-approximation) are checked against brute force on random
   instances. *)

module Model = Stratrec_model
module W = Model.Workforce
module Params = Model.Params
module Deployment = Model.Deployment
module Strategy = Model.Strategy
module Rng = Stratrec_util.Rng
module B = Stratrec.Batchstrat
module BB = Stratrec.Batch_baselines

let combo = List.hd Model.Dimension.all_combos

let dummy_model = Model.Linear_model.synthetic (Rng.create 0)

let strategy id =
  Strategy.single ~id combo
    ~params:(Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5)
    ~model:dummy_model

(* Matrix with explicit per-request requirement and payoff: request i has
   workforce weights.(i) (already aggregated; one strategy with that exact
   requirement and k = 1) and payoff costs.(i). *)
let instance weights costs =
  let m = Array.length weights in
  let requests =
    Array.init m (fun id ->
        Deployment.make ~id
          ~params:(Params.make ~quality:0.1 ~cost:costs.(id) ~latency:0.9)
          ~k:1 ())
  in
  let strategies = Array.init m strategy in
  W.compute_with
    ~requirement:(fun d s ->
      if d.Deployment.id = s.Strategy.id then Some weights.(d.Deployment.id) else None)
    ~requests ~strategies

let test_throughput_simple () =
  let matrix = instance [| 0.2; 0.3; 0.6 |] [| 0.5; 0.5; 0.5 |] in
  let o = B.run ~objective:Stratrec.Objective.Throughput ~aggregation:W.Sum_case ~available:0.5 matrix in
  Alcotest.(check int) "two satisfied" 2 (B.satisfied_count o);
  Alcotest.(check (float 1e-9)) "objective" 2. o.B.objective_value;
  Alcotest.(check (float 1e-9)) "workforce" 0.5 o.B.workforce_used;
  Alcotest.(check (list int)) "unsatisfied" [ 2 ] o.B.unsatisfied

let test_payoff_better_single () =
  (* Greedy by density picks the two cheap low-value items (total 0.4);
     the single expensive item is worth more (0.9): the approximation rule
     must pick it. *)
  let matrix = instance [| 0.1; 0.1; 1.0 |] [| 0.2; 0.2; 0.9 |] in
  let o = B.run ~objective:Stratrec.Objective.Payoff ~aggregation:W.Sum_case ~available:1.0 matrix in
  Alcotest.(check (float 1e-9)) "picked the big one" 0.9 o.B.objective_value;
  Alcotest.(check (list int)) "satisfied request" [ 2 ]
    (List.map (fun s -> s.B.request_index) o.B.satisfied)

let test_zero_weight_requests () =
  let matrix = instance [| 0.; 0.; 0.5 |] [| 0.3; 0.3; 0.8 |] in
  let o = B.run ~objective:Stratrec.Objective.Throughput ~aggregation:W.Sum_case ~available:0.4 matrix in
  Alcotest.(check int) "free requests always fit" 2 (B.satisfied_count o)

let test_infeasible_requests_are_unsatisfied () =
  let m = 3 in
  let requests =
    Array.init m (fun id ->
        Deployment.make ~id ~params:(Params.make ~quality:0.1 ~cost:0.9 ~latency:0.9) ~k:2 ())
  in
  let strategies = Array.init 1 strategy in
  (* k = 2 but only one strategy: nothing can be satisfied. *)
  let matrix = W.compute_with ~requirement:(fun _ _ -> Some 0.1) ~requests ~strategies in
  let o = B.run ~objective:Stratrec.Objective.Throughput ~aggregation:W.Sum_case ~available:1. matrix in
  Alcotest.(check int) "none satisfied" 0 (B.satisfied_count o);
  Alcotest.(check (list int)) "all unsatisfied" [ 0; 1; 2 ] o.B.unsatisfied

let test_chosen_strategies_ascend () =
  let requests = [| Deployment.make ~id:0 ~params:(Params.make ~quality:0.1 ~cost:0.9 ~latency:0.9) ~k:2 () |] in
  let strategies = Array.init 4 strategy in
  let weights = [| 0.4; 0.1; 0.3; 0.2 |] in
  let matrix =
    W.compute_with ~requirement:(fun _ s -> Some weights.(s.Strategy.id)) ~requests ~strategies
  in
  let o = B.run ~objective:Stratrec.Objective.Throughput ~aggregation:W.Sum_case ~available:1. matrix in
  match o.B.satisfied with
  | [ { B.strategy_indices; workforce; _ } ] ->
      Alcotest.(check (list int)) "two cheapest strategies" [ 1; 3 ] strategy_indices;
      Alcotest.(check (float 1e-9)) "sum-case workforce" 0.3 workforce
  | _ -> Alcotest.fail "expected exactly one satisfied request"

(* Regression for the unsatisfied scan: the O(m^2) List.mem complement
   was replaced by a bool-array mark, and the list must stay the
   ascending complement of the satisfied set — bit-identical to the
   reference spelling it replaced. *)
let test_unsatisfied_matches_reference () =
  let rng = Rng.create 42 in
  List.iter
    (fun (m, available) ->
      let weights = Array.init m (fun _ -> Rng.uniform rng ~lo:0.05 ~hi:0.6) in
      let costs = Array.init m (fun _ -> Rng.uniform rng ~lo:0.1 ~hi:1.) in
      let matrix = instance weights costs in
      let o = B.run ~objective:Stratrec.Objective.Throughput ~aggregation:W.Sum_case ~available matrix in
      let chosen = List.map (fun s -> s.B.request_index) o.B.satisfied in
      let reference =
        List.filter (fun i -> not (List.mem i chosen)) (List.init m Fun.id)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "m=%d budget=%.2f" m available)
        reference o.B.unsatisfied)
    [ (1, 0.01); (7, 0.3); (64, 1.2); (64, 0.0) ]

(* [select] over requirement rows computed elsewhere (the aggregator's
   scan or its triage cache) must reproduce the matrix run exactly, and
   a length mismatch is a caller bug surfaced as Invalid_argument. *)
let test_injected_requirements () =
  let weights = [| 0.2; 0.3; 0.6 |] and costs = [| 0.5; 0.5; 0.5 |] in
  let matrix = instance weights costs in
  let precomputed =
    Array.init (Array.length weights) (fun i ->
        W.request_requirement matrix W.Sum_case ~k:1 i)
  in
  let requests = matrix.W.requests in
  let baseline =
    B.run ~objective:Stratrec.Objective.Throughput ~aggregation:W.Sum_case ~available:0.5 matrix
  in
  let injected =
    B.select ~objective:Stratrec.Objective.Throughput ~available:0.5 ~requests precomputed
  in
  Alcotest.(check bool) "identical output" true (baseline = injected);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Batchstrat.select: requirements length mismatch") (fun () ->
      ignore
        (B.select ~objective:Stratrec.Objective.Throughput ~available:0.5 ~requests
           (Array.sub precomputed 0 2)))

(* Random-instance generators for the optimality properties. *)
let gen_instance =
  QCheck.(
    pair
      (list_of_size Gen.(1 -- 10) (pair (float_range 0.05 0.6) (float_range 0.1 1.)))
      (float_range 0.2 1.2))

let run_all objective (pairs, available) =
  let weights = Array.of_list (List.map fst pairs) in
  let costs = Array.of_list (List.map snd pairs) in
  let matrix = instance weights costs in
  let ours = B.run ~objective ~aggregation:W.Sum_case ~available matrix in
  let brute = BB.brute_force ~objective ~aggregation:W.Sum_case ~available matrix in
  (ours, brute)

let prop_throughput_exact =
  QCheck.Test.make ~count:300 ~name:"throughput greedy equals brute force (Theorem 2)"
    gen_instance
    (fun input ->
      let ours, brute = run_all Stratrec.Objective.Throughput input in
      Float.abs (ours.B.objective_value -. brute.B.objective_value) < 1e-9)

let prop_payoff_half_approx =
  QCheck.Test.make ~count:300 ~name:"payoff greedy is a 1/2-approximation (Theorem 3)"
    gen_instance
    (fun input ->
      let ours, brute = run_all Stratrec.Objective.Payoff input in
      ours.B.objective_value >= (0.5 *. brute.B.objective_value) -. 1e-9
      && ours.B.objective_value <= brute.B.objective_value +. 1e-9)

let prop_budget_respected =
  QCheck.Test.make ~count:300 ~name:"greedy never exceeds the workforce budget" gen_instance
    (fun ((_, available) as input) ->
      let ours, _ = run_all Stratrec.Objective.Payoff input in
      ours.B.workforce_used <= available +. 1e-9)

let prop_partition =
  QCheck.Test.make ~count:300 ~name:"satisfied and unsatisfied partition the batch" gen_instance
    (fun ((pairs, _) as input) ->
      let ours, _ = run_all Stratrec.Objective.Throughput input in
      let sat = List.map (fun s -> s.B.request_index) ours.B.satisfied in
      let all = List.sort compare (sat @ ours.B.unsatisfied) in
      all = List.init (List.length pairs) Fun.id)

let prop_baseline_g_never_beats_brute =
  QCheck.Test.make ~count:300 ~name:"BaselineG is bounded by brute force" gen_instance
    (fun (pairs, available) ->
      let weights = Array.of_list (List.map fst pairs) in
      let costs = Array.of_list (List.map snd pairs) in
      let matrix = instance weights costs in
      let baseline =
        BB.baseline_g ~objective:Stratrec.Objective.Payoff ~aggregation:W.Sum_case ~available
          matrix
      in
      let brute =
        BB.brute_force ~objective:Stratrec.Objective.Payoff ~aggregation:W.Sum_case ~available
          matrix
      in
      baseline.B.objective_value <= brute.B.objective_value +. 1e-9)

let test_approximation_factor_helper () =
  let exact = { B.satisfied = []; unsatisfied = []; objective_value = 2.; workforce_used = 0. } in
  let approx = { B.satisfied = []; unsatisfied = []; objective_value = 1.5; workforce_used = 0. } in
  Alcotest.(check (float 1e-9)) "ratio" 0.75 (BB.approximation_factor ~exact ~approx);
  let zero = { exact with B.objective_value = 0. } in
  Alcotest.(check (float 1e-9)) "zero exact" 1. (BB.approximation_factor ~exact:zero ~approx:zero)

let () =
  Alcotest.run "batchstrat"
    [
      ( "unit",
        [
          Alcotest.test_case "throughput simple" `Quick test_throughput_simple;
          Alcotest.test_case "payoff better single" `Quick test_payoff_better_single;
          Alcotest.test_case "zero-weight requests" `Quick test_zero_weight_requests;
          Alcotest.test_case "infeasible requests" `Quick test_infeasible_requests_are_unsatisfied;
          Alcotest.test_case "chosen strategies ascend" `Quick test_chosen_strategies_ascend;
          Alcotest.test_case "unsatisfied matches reference" `Quick
            test_unsatisfied_matches_reference;
          Alcotest.test_case "injected requirements" `Quick test_injected_requirements;
          Alcotest.test_case "approximation factor" `Quick test_approximation_factor_helper;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [
            prop_throughput_exact;
            prop_payoff_half_approx;
            prop_budget_respected;
            prop_partition;
            prop_baseline_g_never_beats_brute;
          ] );
    ]
