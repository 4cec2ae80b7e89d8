(* Unit and property tests for the availability-response model and both
   workforce-inversion rules. *)

module Rng = Stratrec_util.Rng
module Params = Stratrec_model.Params
module LM = Stratrec_model.Linear_model

let model ~q ~c ~l =
  let pair (alpha, beta) = { LM.alpha; beta } in
  { LM.quality = pair q; cost = pair c; latency = pair l }

(* A realistic model: quality and cost rise with availability, latency
   falls. *)
let realistic = model ~q:(0.25, 0.6) ~c:(0.5, 0.3) ~l:(-0.5, 0.9)

let test_response_estimate () =
  let p = LM.estimate realistic ~availability:0.8 in
  Alcotest.(check (float 1e-9)) "quality" 0.8 p.Params.quality;
  Alcotest.(check (float 1e-9)) "cost" 0.7 p.Params.cost;
  Alcotest.(check (float 1e-9)) "latency" 0.5 p.Params.latency

let test_estimate_clamps () =
  let wild = model ~q:(2., 0.5) ~c:(1., 0.9) ~l:(-3., 0.1) in
  let p = LM.estimate wild ~availability:1. in
  Alcotest.(check (float 1e-9)) "quality clamped" 1. p.Params.quality;
  Alcotest.(check (float 1e-9)) "cost clamped" 1. p.Params.cost;
  Alcotest.(check (float 1e-9)) "latency clamped" 0. p.Params.latency

let test_workforce_requirement_direction_aware () =
  (* Binding constraint is latency (0.8); quality needs 0.8 as well; the
     cost cap at 0.8 allows it exactly. *)
  let request = Params.make ~quality:0.8 ~cost:0.7 ~latency:0.5 in
  Alcotest.(check (option (float 1e-9))) "requirement" (Some 0.8)
    (LM.workforce_requirement realistic ~request);
  (* A stingier cost budget makes the request infeasible. *)
  let tight = Params.make ~quality:0.8 ~cost:0.5 ~latency:0.5 in
  Alcotest.(check (option (float 1e-9))) "cap below lower bound" None
    (LM.workforce_requirement realistic ~request:tight);
  (* Trivial thresholds need no workforce. *)
  let easy = Params.make ~quality:0. ~cost:1. ~latency:1. in
  Alcotest.(check (option (float 1e-9))) "free" (Some 0.)
    (LM.workforce_requirement realistic ~request:easy)

let test_workforce_requirement_paper_rule () =
  (* All positive slopes with beta = 1 - alpha, the synthetic §5.2.2 shape:
     requirement solves each axis at equality. *)
  let synth = model ~q:(0.8, 0.2) ~c:(0.5, 0.5) ~l:(0.6, 0.4) in
  let request = Params.make ~quality:0.9 ~cost:0.75 ~latency:0.7 in
  (* w_q = (0.9-0.2)/0.8 = 0.875, w_c = 0.5, w_l = 0.5 -> max 0.875. *)
  Alcotest.(check (option (float 1e-9))) "paper max rule" (Some 0.875)
    (LM.workforce_requirement_paper synth ~request);
  (* Unreachable threshold (w > 1) is infeasible. *)
  let weak = model ~q:(0.6, 0.2) ~c:(0.5, 0.5) ~l:(0.6, 0.4) in
  let unreachable = Params.make ~quality:0.9 ~cost:0.75 ~latency:0.7 in
  Alcotest.(check (option (float 1e-9))) "infeasible" None
    (LM.workforce_requirement_paper weak ~request:unreachable)

let test_fit_recovers_model () =
  let observations =
    Array.init 20 (fun i ->
        let w = float_of_int i /. 19. in
        (w, LM.estimate realistic ~availability:w))
  in
  let fitted = LM.fit ~observations in
  List.iter
    (fun axis ->
      let truth = LM.coeffs realistic axis and got = LM.coeffs fitted axis in
      Alcotest.(check (float 1e-6))
        (Params.axis_label axis ^ " alpha")
        truth.LM.alpha got.LM.alpha;
      Alcotest.(check (float 1e-6)) (Params.axis_label axis ^ " beta") truth.LM.beta got.LM.beta)
    Params.all_axes

let test_synthetic_ranges () =
  let rng = Rng.create 99 in
  for _ = 1 to 200 do
    let m = LM.synthetic rng in
    List.iter
      (fun axis ->
        let c = LM.coeffs m axis in
        Alcotest.(check bool) "alpha in [0.5,1]" true (c.LM.alpha >= 0.5 && c.LM.alpha <= 1.);
        Alcotest.(check (float 1e-12)) "beta = 1 - alpha" (1. -. c.LM.alpha) c.LM.beta)
      Params.all_axes
  done

let prop_paper_rule_requirements_in_unit_range =
  QCheck.Test.make ~count:500
    ~name:"synthetic paper-rule requirements stay in [0,1] for generous thresholds"
    QCheck.(triple (float_range 0.625 1.) (float_range 0.625 1.) (float_range 0.625 1.))
    (fun (q', c, l) ->
      let rng = Rng.create (int_of_float (q' *. 1e6)) in
      let m = LM.synthetic rng in
      let request = Params.make ~quality:(1. -. q') ~cost:c ~latency:l in
      match LM.workforce_requirement_paper m ~request with
      | Some w -> w >= 0. && w <= 1.
      | None -> false)

let prop_direction_aware_requirement_satisfies =
  QCheck.Test.make ~count:500
    ~name:"estimating at the direction-aware requirement meets the thresholds"
    QCheck.(triple (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.))
    (fun (q, c, l) ->
      let request = Params.make ~quality:q ~cost:c ~latency:l in
      match LM.workforce_requirement realistic ~request with
      | None -> true
      | Some w ->
          let p = LM.estimate realistic ~availability:w in
          (* Clamping can only help satisfaction of quality; cost needs the
             epsilon for float division noise. *)
          p.Params.quality +. 1e-9 >= q && p.Params.cost <= c +. 1e-9
          && p.Params.latency <= l +. 1e-9)

let () =
  Alcotest.run "linear_model"
    [
      ( "unit",
        [
          Alcotest.test_case "response/estimate" `Quick test_response_estimate;
          Alcotest.test_case "estimate clamps" `Quick test_estimate_clamps;
          Alcotest.test_case "direction-aware requirement" `Quick
            test_workforce_requirement_direction_aware;
          Alcotest.test_case "paper equality rule" `Quick test_workforce_requirement_paper_rule;
          Alcotest.test_case "fit recovers model" `Quick test_fit_recovers_model;
          Alcotest.test_case "synthetic ranges" `Quick test_synthetic_ranges;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [
            prop_paper_rule_requirements_in_unit_range;
            prop_direction_aware_requirement_satisfies;
          ] );
    ]
