(* Unit tests for the availability-response model: estimation, fitting
   and the synthetic generator. Its inversion to a workforce requirement
   is tested in test_workforce_inversion. *)

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

let () =
  Alcotest.run "linear_model"
    [
      ( "unit",
        [
          Alcotest.test_case "response/estimate" `Quick test_response_estimate;
          Alcotest.test_case "estimate clamps" `Quick test_estimate_clamps;
          Alcotest.test_case "fit recovers model" `Quick test_fit_recovers_model;
          Alcotest.test_case "synthetic ranges" `Quick test_synthetic_ranges;
        ] );
    ]
