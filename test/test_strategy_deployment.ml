(* Unit tests for strategies and deployment requests. *)

module Model = Stratrec_model
module Params = Model.Params
module Strategy = Model.Strategy
module Deployment = Model.Deployment
module Dimension = Model.Dimension
module LM = Model.Linear_model

let combo = List.hd Dimension.all_combos

let simple_model =
  {
    LM.quality = { LM.alpha = 0.2; beta = 0.6 };
    cost = { LM.alpha = 0.5; beta = 0.2 };
    latency = { LM.alpha = -0.4; beta = 0.8 };
  }

let strategy ?(id = 1) ?(q = 0.7) ?(c = 0.5) ?(l = 0.3) () =
  Strategy.single ~id combo ~params:(Params.make ~quality:q ~cost:c ~latency:l)
    ~model:simple_model

let test_make_validation () =
  Alcotest.check_raises "empty stages" (Invalid_argument "Strategy.make: empty stage list")
    (fun () ->
      ignore
        (Strategy.make ~id:1 ~stages:[]
           ~params:(Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5)
           ~model:simple_model ()));
  Alcotest.check_raises "k < 1" (Invalid_argument "Deployment.make: k must be >= 1") (fun () ->
      ignore
        (Deployment.make ~id:1 ~params:(Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5) ~k:0 ()))

let test_default_labels () =
  let s =
    Strategy.make ~id:7 ~stages:[ combo; combo ]
      ~params:(Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5)
      ~model:simple_model ()
  in
  Alcotest.(check string) "stage-joined label" "SEQ-COL-CRO+SEQ-COL-CRO" s.Strategy.label;
  Alcotest.(check int) "stage count" 2 (List.length s.Strategy.stages);
  let d = Deployment.make ~id:3 ~params:(Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5) ~k:2 () in
  Alcotest.(check string) "request label" "d3" d.Deployment.label

let test_instantiate () =
  let s = strategy () in
  let s' = Strategy.instantiate s ~availability:0.5 in
  Alcotest.(check (float 1e-9)) "quality" 0.7 s'.Strategy.params.Params.quality;
  Alcotest.(check (float 1e-9)) "cost" 0.45 s'.Strategy.params.Params.cost;
  Alcotest.(check (float 1e-9)) "latency" 0.6 s'.Strategy.params.Params.latency;
  Alcotest.(check bool) "identity preserved" true (Strategy.equal s s')

let test_point () =
  let s = strategy ~q:0.7 ~c:0.5 ~l:0.3 () in
  let p = Strategy.point s in
  Alcotest.(check (float 1e-12)) "inverted quality" 0.3 (Stratrec_geom.Point3.coord p 0)

let test_satisfied_by_and_candidates () =
  let d = Deployment.make ~id:1 ~params:(Params.make ~quality:0.6 ~cost:0.6 ~latency:0.4) ~k:2 () in
  let good = strategy ~id:1 ~q:0.7 ~c:0.5 ~l:0.3 () in
  let bad = strategy ~id:2 ~q:0.5 ~c:0.5 ~l:0.3 () in
  let expensive = strategy ~id:3 ~q:0.9 ~c:0.7 ~l:0.3 () in
  Alcotest.(check bool) "good satisfies" true (Deployment.satisfied_by d good);
  Alcotest.(check bool) "bad quality" false (Deployment.satisfied_by d bad);
  Alcotest.(check bool) "too expensive" false (Deployment.satisfied_by d expensive);
  let candidates = List.filter (Deployment.satisfied_by d) [ good; bad; expensive ] in
  Alcotest.(check (list int)) "candidates" [ 1 ]
    (List.map (fun s -> s.Strategy.id) candidates)

let test_is_successful () =
  let d = Deployment.make ~id:1 ~params:(Params.make ~quality:0.6 ~cost:0.6 ~latency:0.4) ~k:2 () in
  let s1 = strategy ~id:1 () and s2 = strategy ~id:2 ~q:0.8 () in
  Alcotest.(check bool) "two satisfying strategies" true (Deployment.is_successful d [ s1; s2 ]);
  Alcotest.(check bool) "wrong cardinality" false (Deployment.is_successful d [ s1 ]);
  Alcotest.(check bool) "duplicates rejected" false (Deployment.is_successful d [ s1; s1 ]);
  let bad = strategy ~id:3 ~q:0.1 () in
  Alcotest.(check bool) "non-satisfying member" false (Deployment.is_successful d [ s1; bad ])

let test_payoff_and_box () =
  let d = Deployment.make ~id:1 ~params:(Params.make ~quality:0.6 ~cost:0.55 ~latency:0.4) ~k:1 () in
  Alcotest.(check (float 1e-9)) "payoff is cost" 0.55 (Deployment.payoff d);
  let box = Deployment.box d in
  Alcotest.(check bool) "strategy point in box iff satisfied" true
    (Stratrec_geom.Box3.contains_point box (Strategy.point (strategy ())))

let test_workforce_requirement () =
  let s = strategy () in
  (* quality 0.7 -> w = 0.5; latency 0.4 -> w = 1.0; cost cap (0.6-0.2)/0.5
     = 0.8 < 1.0 -> infeasible. *)
  Alcotest.(check (option (float 1e-9))) "infeasible via cap" None
    (Model.Workforce.workforce_requirement s.Strategy.model
       ~request:(Params.make ~quality:0.7 ~cost:0.6 ~latency:0.4));
  (* Looser latency: w = max(0.5, 0.5) = 0.5, cap 0.8 ok. *)
  Alcotest.(check (option (float 1e-9))) "feasible" (Some 0.5)
    (Model.Workforce.workforce_requirement s.Strategy.model
       ~request:(Params.make ~quality:0.7 ~cost:0.6 ~latency:0.6))

let test_workflow_space_size () =
  Alcotest.(check (float 1e-9)) "one stage" 8. (Strategy.workflow_space_size ~stages:1);
  Alcotest.(check (float 1e-9)) "ten stages (the paper's 1,073,741,824)" 1073741824.
    (Strategy.workflow_space_size ~stages:10);
  Alcotest.(check (float 1e-9)) "zero stages" 1. (Strategy.workflow_space_size ~stages:0);
  Alcotest.check_raises "negative" (Invalid_argument "Strategy.workflow_space_size: negative stages")
    (fun () -> ignore (Strategy.workflow_space_size ~stages:(-1)))

let () =
  Alcotest.run "strategy_deployment"
    [
      ( "strategy",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "default labels" `Quick test_default_labels;
          Alcotest.test_case "instantiate" `Quick test_instantiate;
          Alcotest.test_case "normalized point" `Quick test_point;
          Alcotest.test_case "workforce requirement" `Quick test_workforce_requirement;
          Alcotest.test_case "workflow space size" `Quick test_workflow_space_size;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "satisfied_by/candidates" `Quick test_satisfied_by_and_candidates;
          Alcotest.test_case "is_successful" `Quick test_is_successful;
          Alcotest.test_case "payoff and box" `Quick test_payoff_and_box;
        ] );
    ]
