(* Unit tests for worker availability. *)

module A = Stratrec_model.Availability
module Rng = Stratrec_util.Rng

let test_paper_expectation () =
  (* §2.1's example: 70%@7% + 30%@2% = 5.5%; 4000 workers -> 220. *)
  let a = A.of_outcomes [ (0.07, 0.7); (0.02, 0.3) ] in
  Alcotest.(check (float 1e-9)) "expectation" 0.055 (A.expected a);
  Alcotest.(check (float 1e-9)) "expected workers" 220. (A.expected a *. 4000.)

let test_example_availability () =
  (* §2.2: 50%@700 + 50%@900 of 1000 -> 0.8. *)
  let a = A.of_outcomes [ (0.7, 0.5); (0.9, 0.5) ] in
  Alcotest.(check (float 1e-9)) "expectation" 0.8 (A.expected a)

let test_certain () =
  let a = A.certain 0.42 in
  Alcotest.(check (float 1e-9)) "expectation" 0.42 (A.expected a);
  Alcotest.(check (float 1e-9)) "sample is constant" 0.42 (A.sample a (Rng.create 1));
  Alcotest.check_raises "out of range" (Invalid_argument "Availability.certain: value outside [0,1]")
    (fun () -> ignore (A.certain 1.5));
  Alcotest.check_raises "nan" (Invalid_argument "Availability.certain: value outside [0,1]")
    (fun () -> ignore (A.certain Float.nan))

let test_of_pdf_validation () =
  let bad = Stratrec_util.Distribution.Discrete.create [ (1.5, 1.) ] in
  Alcotest.check_raises "proportion > 1"
    (Invalid_argument "Availability.of_pdf: proportion 1.5 outside [0,1]") (fun () ->
      ignore (A.of_pdf bad))

let test_observed_ratio () =
  Alcotest.(check (float 1e-9)) "7 of 10" 0.7 (A.observed_ratio ~undertaken:7 ~capacity:10);
  Alcotest.(check (float 1e-9)) "overfull clamps" 1. (A.observed_ratio ~undertaken:12 ~capacity:10);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Availability.observed_ratio: capacity must be positive") (fun () ->
      ignore (A.observed_ratio ~undertaken:1 ~capacity:0));
  Alcotest.check_raises "negative undertaken"
    (Invalid_argument "Availability.observed_ratio: negative undertaken") (fun () ->
      ignore (A.observed_ratio ~undertaken:(-1) ~capacity:5))

let test_sampling () =
  let a = A.of_outcomes [ (0.2, 0.5); (0.8, 0.5) ] in
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let v = A.sample a rng in
    Alcotest.(check bool) "sample is an outcome" true (v = 0.2 || v = 0.8)
  done

let () =
  Alcotest.run "availability"
    [
      ( "availability",
        [
          Alcotest.test_case "paper expectation" `Quick test_paper_expectation;
          Alcotest.test_case "example 1 availability" `Quick test_example_availability;
          Alcotest.test_case "certain" `Quick test_certain;
          Alcotest.test_case "pdf validation" `Quick test_of_pdf_validation;
          Alcotest.test_case "observed ratio" `Quick test_observed_ratio;
          Alcotest.test_case "sampling" `Quick test_sampling;
        ] );
    ]
