(* Unit tests for the online (stream) aggregator extension and the weighted
   objective. *)

module Model = Stratrec_model
module Params = Model.Params
module Deployment = Model.Deployment
module Rng = Stratrec_util.Rng
module S = Stratrec.Stream_aggregator
module Sim = Stratrec_crowdsim
module Fault = Stratrec_resilience.Fault

let catalog seed n =
  Model.Workload.strategies (Rng.create seed) ~n ~kind:Model.Workload.Uniform

let request ?(k = 2) id (q, c, l) =
  Deployment.make ~id ~params:(Params.make ~quality:q ~cost:c ~latency:l) ~k ()

let easy id = request id (0.1, 0.95, 0.95)
let impossible id = request ~k:3 id (1.0, 0.01, 0.01)

let test_admission_and_budget () =
  let t = S.create ~strategies:(catalog 1 100) ~workforce:1.5 () in
  let total_before = S.available t in
  (match S.submit t (easy 0) with
  | S.Admitted { strategies; workforce } ->
      Alcotest.(check int) "k strategies" 2 (List.length strategies);
      Alcotest.(check bool) "positive reservation recorded" true (workforce >= 0.);
      Alcotest.(check (float 1e-9)) "conservation" total_before
        (S.available t +. S.committed t)
  | _ -> Alcotest.fail "easy request should be admitted");
  Alcotest.(check int) "admitted" 1 (S.admitted_count t);
  Alcotest.(check int) "active" 1 (List.length (S.active t))

let test_workforce_exhaustion_then_replenish () =
  let t = S.create ~strategies:(catalog 2 100) ~workforce:0. () in
  (* Zero pool: a request needing any workforce is workforce-limited. *)
  let d = request 1 (0.6, 0.7, 0.7) in
  (match S.submit t d with
  | S.Workforce_limited -> ()
  | S.Admitted { workforce; _ } ->
      (* Only acceptable if the request genuinely needs no workforce. *)
      Alcotest.(check (float 1e-9)) "free admission" 0. workforce
  | _ -> Alcotest.fail "unexpected decision");
  S.replenish t 1.;
  match S.submit t (request 2 (0.6, 0.7, 0.7)) with
  | S.Admitted _ -> ()
  | _ -> Alcotest.fail "replenished pool should admit"

let test_revocation_frees_capacity () =
  let t = S.create ~strategies:(catalog 3 100) ~workforce:1.0 () in
  let reserved =
    match S.submit t (easy 7) with
    | S.Admitted { workforce; _ } -> workforce
    | _ -> Alcotest.fail "should admit"
  in
  let before = S.available t in
  Alcotest.(check bool) "revoke succeeds" true (S.revoke t 7);
  Alcotest.(check (float 1e-9)) "capacity returned" (before +. reserved) (S.available t);
  Alcotest.(check bool) "second revoke is a no-op" false (S.revoke t 7);
  Alcotest.(check int) "no active left" 0 (List.length (S.active t))

let test_duplicate_rejected () =
  let t = S.create ~strategies:(catalog 4 100) ~workforce:2. () in
  ignore (S.submit t (easy 5));
  Alcotest.(check bool) "duplicate id" true (S.submit t (easy 5) = S.Duplicate);
  Alcotest.(check bool) "after revoke resubmission works" true
    (S.revoke t 5
    &&
    match S.submit t (easy 5) with S.Admitted _ -> true | _ -> false)

let test_alternative_for_impossible_thresholds () =
  let t = S.create ~strategies:(catalog 5 50) ~workforce:1. () in
  (match S.submit t (impossible 9) with
  | S.Alternative r ->
      Alcotest.(check bool) "positive distance" true (r.Stratrec.Adpar.distance > 0.);
      Alcotest.(check int) "k recommendations" 3 (List.length r.Stratrec.Adpar.recommended)
  | _ -> Alcotest.fail "expected an ADPaR alternative");
  Alcotest.(check int) "counted as rejection" 1 (S.rejected_count t)

let test_no_alternative_when_catalog_small () =
  let t = S.create ~strategies:(catalog 6 2) ~workforce:1. () in
  Alcotest.(check bool) "catalog too small" true
    (S.submit t (request ~k:5 11 (0.5, 0.5, 0.5)) = S.No_alternative)

let test_invalid_args () =
  Alcotest.check_raises "negative workforce"
    (Invalid_argument "Stream_aggregator.create: negative workforce") (fun () ->
      ignore (S.create ~strategies:(catalog 7 5) ~workforce:(-0.5) ()));
  let t = S.create ~strategies:(catalog 8 5) ~workforce:1. () in
  Alcotest.check_raises "negative replenish"
    (Invalid_argument "Stream_aggregator.replenish: negative amount") (fun () ->
      S.replenish t (-1.))

(* Budget conservation under random operation sequences: at every point,
   free + committed workforce equals the initial pool plus everything
   replenished, and the committed total matches the active assignments. *)
type op = Submit of int | Revoke of int | Replenish of float

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun id -> Submit id) (int_bound 20));
        (2, map (fun id -> Revoke id) (int_bound 20));
        (1, map (fun amount -> Replenish amount) (float_range 0. 0.5));
      ])

let prop_budget_conservation =
  QCheck.Test.make ~count:200 ~name:"free + committed tracks initial + replenished"
    (QCheck.make
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | Submit id -> Printf.sprintf "submit %d" id
                | Revoke id -> Printf.sprintf "revoke %d" id
                | Replenish a -> Printf.sprintf "replenish %.3f" a)
              ops))
       QCheck.Gen.(list_size (1 -- 40) op_gen))
    (fun ops ->
      let t = S.create ~strategies:(catalog 99 80) ~workforce:1.0 () in
      let injected = ref 1.0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Submit id ->
              let params =
                Model.Params.make
                  ~quality:(0.1 +. (0.02 *. float_of_int id))
                  ~cost:(0.95 -. (0.01 *. float_of_int id))
                  ~latency:0.9
              in
              ignore (S.submit t (Deployment.make ~id ~params ~k:2 ()))
          | Revoke id -> ignore (S.revoke t id)
          | Replenish amount ->
              injected := !injected +. amount;
              S.replenish t amount);
          let active_total =
            List.fold_left (fun acc (_, _, w) -> acc +. w) 0. (S.active t)
          in
          if
            S.available t < -.1e-9
            || Float.abs (S.committed t -. active_total) > 1e-9
            || Float.abs (S.available t +. S.committed t -. !injected) > 1e-6
          then ok := false)
        ops;
      !ok)

(* Mid-stream fault plan: a platform outage collapses the availability
   estimate, the catalog re-instantiated at the collapsed estimate no
   longer meets thresholds that were fine while the platform was healthy,
   and the same request shape shifts from Admitted to an ADPaR
   alternative. Triage degrades; nothing raises. *)
let test_mid_stream_fault_collapse () =
  let rng = Rng.create 17 in
  let platform = Sim.Platform.create rng ~population:300 in
  let window = Sim.Window.Early_week in
  let kind = Sim.Task_spec.Sentence_translation in
  let estimate ?faults () =
    Model.Availability.expected
      (Sim.Platform.estimate_availability ?faults platform rng ~kind ~window ~capacity:10
         ~samples:20)
  in
  let healthy = estimate () in
  Alcotest.(check bool) "healthy platform attracts workers" true (healthy > 0.3);
  let base = catalog 13 100 in
  let instantiate availability =
    Array.map (fun s -> Model.Strategy.instantiate s ~availability) base
  in
  (* Generous cost/latency budgets, demanding quality: the synthetic
     linear responses rise with availability, so quality 0.85 is easy at
     the healthy estimate and unreachable at a collapsed one. *)
  let demanding id = request id (0.85, 1.0, 1.0) in
  let session = S.create ~strategies:(instantiate healthy) ~workforce:healthy () in
  (match S.submit session (demanding 0) with
  | S.Admitted _ -> ()
  | _ -> Alcotest.fail "healthy estimate should admit the request");
  (* The outage hits mid-stream: the same estimator now sees an empty
     window, and the collapsed estimate re-triages the same shape. *)
  let faults = Fault.make ~outages:[ Sim.Window.index window ] () in
  let collapsed = estimate ~faults () in
  Alcotest.(check (float 1e-9)) "outage collapses the estimate" 0. collapsed;
  let session = S.create ~strategies:(instantiate collapsed) ~workforce:collapsed () in
  match S.submit session (demanding 1) with
  | S.Alternative r ->
      Alcotest.(check bool) "repair at positive distance" true
        (r.Stratrec.Adpar.distance > 0.)
  | S.Admitted _ -> Alcotest.fail "collapsed availability should not admit"
  | S.Workforce_limited -> Alcotest.fail "thresholds should bind before the budget"
  | _ -> Alcotest.fail "expected an ADPaR alternative"

(* Weighted objective. *)

let test_config_based_create () =
  (* The unified Aggregator.config's aggregation and inversion rule
     apply: an admitted request reserves exactly its Sum-case,
     paper-equality requirement. *)
  let strategies = catalog 11 100 in
  let t =
    S.create
      ~config:
        {
          Stratrec.Aggregator.default_config with
          Stratrec.Aggregator.aggregation = Model.Workforce.Sum_case;
          inversion_rule = `Paper_equality;
        }
      ~strategies ~workforce:2.0 ()
  in
  let d = easy 0 in
  let expected =
    Model.Workforce.request_requirement
      (Model.Workforce.compute ~rule:`Paper_equality ~requests:[| d |] ~strategies ())
      Model.Workforce.Sum_case ~k:d.Deployment.k 0
  in
  match (S.submit t d, expected) with
  | S.Admitted { workforce; _ }, Some { Model.Workforce.workforce = sum_case; _ } ->
      Alcotest.(check (float 1e-12)) "Sum-case reservation" sum_case workforce
  | _ -> Alcotest.fail "easy request should be admitted"

let test_stream_metrics () =
  let metrics = Stratrec_obs.Registry.create () in
  let t = S.create ~metrics ~strategies:(catalog 12 100) ~workforce:1.0 () in
  ignore (S.submit t (easy 0));
  ignore (S.submit t (easy 0)) (* duplicate *);
  ignore (S.submit t (impossible 1));
  ignore (S.revoke t 0);
  S.replenish t 0.5;
  let snap = Stratrec_obs.Registry.snapshot metrics in
  let counter = Stratrec_obs.Snapshot.counter_value snap in
  Alcotest.(check int) "submitted" 3 (counter "stream.submitted_total");
  Alcotest.(check int) "admitted" 1 (counter "stream.admitted_total");
  Alcotest.(check int) "duplicate" 1 (counter "stream.duplicate_total");
  Alcotest.(check int) "revoked" 1 (counter "stream.revoked_total");
  Alcotest.(check int) "replenished" 1 (counter "stream.replenished_total");
  Alcotest.(check (float 1e-9)) "pool gauge tracks available workforce"
    (S.available t)
    (Stratrec_obs.Snapshot.gauge_value snap "stream.pool_workforce")

let test_weighted_objective_value () =
  let d = request 0 (0.1, 0.8, 0.9) in
  let o = Stratrec.Objective.weighted ~throughput:2. ~payoff:0.5 in
  Alcotest.(check (float 1e-9)) "2*1 + 0.5*0.8" 2.4 (Stratrec.Objective.value o d);
  Alcotest.(check bool) "not exact greedy" false (Stratrec.Objective.exact_greedy o);
  Alcotest.(check bool) "throughput exact" true
    (Stratrec.Objective.exact_greedy Stratrec.Objective.Throughput);
  Alcotest.check_raises "negative weight" (Invalid_argument "Objective.weighted: negative weight")
    (fun () -> ignore (Stratrec.Objective.weighted ~throughput:(-1.) ~payoff:1.));
  Alcotest.check_raises "zero weights" (Invalid_argument "Objective.weighted: all weights zero")
    (fun () -> ignore (Stratrec.Objective.weighted ~throughput:0. ~payoff:0.))

let test_weighted_reduces_to_parts () =
  (* With payoff weight 0 the weighted objective ranks like throughput; with
     throughput weight 0 like payoff. Check on a batch run. *)
  let rng = Rng.create 9 in
  let strategies = Model.Workload.strategies rng ~n:50 ~kind:Model.Workload.Uniform in
  let requests = Model.Workload.requests rng ~m:8 ~k:3 in
  let matrix =
    Model.Workforce.compute ~rule:`Paper_equality ~requests ~strategies ()
  in
  let run objective =
    Stratrec.Batchstrat.run ~objective ~aggregation:Model.Workforce.Max_case ~available:0.85
      matrix
  in
  let pure = run Stratrec.Objective.Payoff in
  let scaled = run (Stratrec.Objective.weighted ~throughput:0. ~payoff:2.) in
  Alcotest.(check (float 1e-9)) "same choices, doubled value"
    (2. *. pure.Stratrec.Batchstrat.objective_value)
    scaled.Stratrec.Batchstrat.objective_value

let () =
  Alcotest.run "stream_aggregator"
    [
      ( "stream",
        [
          Alcotest.test_case "admission and budget" `Quick test_admission_and_budget;
          Alcotest.test_case "exhaustion/replenish" `Quick test_workforce_exhaustion_then_replenish;
          Alcotest.test_case "revocation" `Quick test_revocation_frees_capacity;
          Alcotest.test_case "duplicates" `Quick test_duplicate_rejected;
          Alcotest.test_case "alternative for impossible" `Quick
            test_alternative_for_impossible_thresholds;
          Alcotest.test_case "no alternative" `Quick test_no_alternative_when_catalog_small;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "config-based create" `Quick test_config_based_create;
          Alcotest.test_case "metrics" `Quick test_stream_metrics;
          Alcotest.test_case "mid-stream fault collapse" `Quick
            test_mid_stream_fault_collapse;
          Tq.to_alcotest prop_budget_conservation;
        ] );
      ( "weighted objective",
        [
          Alcotest.test_case "value" `Quick test_weighted_objective_value;
          Alcotest.test_case "reduces to parts" `Quick test_weighted_reduces_to_parts;
        ] );
    ]
