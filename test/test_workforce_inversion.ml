(* Unit and property tests for the two workforce-inversion rules (§3.2),
   `Workforce.workforce_requirement` and `workforce_requirement_paper`.
   test_workforce checks the matrix and the scan that run the same
   inversion. These keep an executable of their own: Alcotest pads every
   suite name to the longest in its run and trims test names to fit 80
   columns, so a `properties` group inside test_workforce would change
   the printed names of its `workforce` group. *)

module Rng = Stratrec_util.Rng
module Params = Stratrec_model.Params
module LM = Stratrec_model.Linear_model
module W = Stratrec_model.Workforce

let model ~q ~c ~l =
  let pair (alpha, beta) = { LM.alpha; beta } in
  { LM.quality = pair q; cost = pair c; latency = pair l }

(* A realistic model: quality and cost rise with availability, latency
   falls. *)
let realistic = model ~q:(0.25, 0.6) ~c:(0.5, 0.3) ~l:(-0.5, 0.9)

let test_workforce_requirement_direction_aware () =
  (* Binding constraint is latency (0.8); quality needs 0.8 as well; the
     cost cap at 0.8 allows it exactly. *)
  let request = Params.make ~quality:0.8 ~cost:0.7 ~latency:0.5 in
  Alcotest.(check (option (float 1e-9))) "requirement" (Some 0.8)
    (W.workforce_requirement realistic ~request);
  (* A stingier cost budget makes the request infeasible. *)
  let tight = Params.make ~quality:0.8 ~cost:0.5 ~latency:0.5 in
  Alcotest.(check (option (float 1e-9))) "cap below lower bound" None
    (W.workforce_requirement realistic ~request:tight);
  (* Trivial thresholds need no workforce. *)
  let easy = Params.make ~quality:0. ~cost:1. ~latency:1. in
  Alcotest.(check (option (float 1e-9))) "free" (Some 0.)
    (W.workforce_requirement realistic ~request:easy)

let test_workforce_requirement_paper_rule () =
  (* All positive slopes with beta = 1 - alpha, the synthetic §5.2.2 shape:
     requirement solves each axis at equality. *)
  let synth = model ~q:(0.8, 0.2) ~c:(0.5, 0.5) ~l:(0.6, 0.4) in
  let request = Params.make ~quality:0.9 ~cost:0.75 ~latency:0.7 in
  (* w_q = (0.9-0.2)/0.8 = 0.875, w_c = 0.5, w_l = 0.5 -> max 0.875. *)
  Alcotest.(check (option (float 1e-9))) "paper max rule" (Some 0.875)
    (W.workforce_requirement_paper synth ~request);
  (* Unreachable threshold (w > 1) is infeasible. *)
  let weak = model ~q:(0.6, 0.2) ~c:(0.5, 0.5) ~l:(0.6, 0.4) in
  let unreachable = Params.make ~quality:0.9 ~cost:0.75 ~latency:0.7 in
  Alcotest.(check (option (float 1e-9))) "infeasible" None
    (W.workforce_requirement_paper weak ~request:unreachable)

let prop_paper_rule_requirements_in_unit_range =
  QCheck.Test.make ~count:500
    ~name:"synthetic paper-rule requirements stay in [0,1] for generous thresholds"
    QCheck.(triple (float_range 0.625 1.) (float_range 0.625 1.) (float_range 0.625 1.))
    (fun (q', c, l) ->
      let rng = Rng.create (int_of_float (q' *. 1e6)) in
      let m = LM.synthetic rng in
      let request = Params.make ~quality:(1. -. q') ~cost:c ~latency:l in
      match W.workforce_requirement_paper m ~request with
      | Some w -> w >= 0. && w <= 1.
      | None -> false)

let prop_direction_aware_requirement_satisfies =
  QCheck.Test.make ~count:500
    ~name:"estimating at the direction-aware requirement meets the thresholds"
    QCheck.(triple (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.))
    (fun (q, c, l) ->
      let request = Params.make ~quality:q ~cost:c ~latency:l in
      match W.workforce_requirement realistic ~request with
      | None -> true
      | Some w ->
          let p = LM.estimate realistic ~availability:w in
          (* Clamping can only help satisfaction of quality; cost needs the
             epsilon for float division noise. *)
          p.Params.quality +. 1e-9 >= q && p.Params.cost <= c +. 1e-9
          && p.Params.latency <= l +. 1e-9)

let () =
  Alcotest.run "workforce_inversion"
    [
      ( "unit",
        [
          Alcotest.test_case "direction-aware requirement" `Quick
            test_workforce_requirement_direction_aware;
          Alcotest.test_case "paper equality rule" `Quick test_workforce_requirement_paper_rule;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [
            prop_paper_rule_requirements_in_unit_range;
            prop_direction_aware_requirement_satisfies;
          ] );
    ]
