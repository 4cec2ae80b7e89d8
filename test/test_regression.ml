(* Unit and property tests for OLS regression — the Table 6 fitting
   machinery. *)

module Rng = Stratrec_util.Rng
module R = Stratrec_util.Regression

let test_exact_line () =
  let xs = [| 0.; 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> (2.5 *. x) -. 1.) xs in
  let f = R.fit ~xs ~ys in
  Alcotest.(check (float 1e-9)) "slope" 2.5 f.R.slope;
  Alcotest.(check (float 1e-9)) "intercept" (-1.) f.R.intercept;
  Alcotest.(check (float 1e-9)) "r^2" 1. f.R.r_squared;
  Alcotest.(check (float 1e-9)) "residual std" 0. f.R.residual_std;
  Alcotest.(check (float 1e-9)) "predict" 9. ((f.R.slope *. 4.) +. f.R.intercept)

let test_known_fit () =
  (* Hand-checked least squares: xs=[1;2;3], ys=[2;2;4] -> slope 1,
     intercept 2/3. *)
  let f = R.fit ~xs:[| 1.; 2.; 3. |] ~ys:[| 2.; 2.; 4. |] in
  Alcotest.(check (float 1e-9)) "slope" 1. f.R.slope;
  Alcotest.(check (float 1e-9)) "intercept" (2. /. 3.) f.R.intercept

let test_noisy_recovery () =
  let rng = Rng.create 42 in
  let n = 200 in
  let xs = Array.init n (fun i -> float_of_int i /. float_of_int n) in
  let ys = Array.map (fun x -> (0.9 *. x) +. 0.1 +. Rng.gaussian rng ~mu:0. ~sigma:0.02) xs in
  let f = R.fit ~xs ~ys in
  Alcotest.(check bool) "slope near 0.9" true (Float.abs (f.R.slope -. 0.9) < 0.03);
  Alcotest.(check bool) "intercept near 0.1" true (Float.abs (f.R.intercept -. 0.1) < 0.02);
  Alcotest.(check bool) "r^2 high" true (f.R.r_squared > 0.9);
  (* The generating coefficients lie within the 90% CI. *)
  Alcotest.(check bool) "within confidence" true
    (R.within_confidence ~level:0.9 f ~slope:0.9 ~intercept:0.1)

let test_confidence_widens () =
  let rng = Rng.create 43 in
  let xs = Array.init 30 (fun i -> float_of_int i) in
  let ys = Array.map (fun x -> x +. Rng.gaussian rng ~mu:0. ~sigma:1.) xs in
  let f = R.fit ~xs ~ys in
  let lo90, hi90 = R.slope_confidence_interval ~level:0.9 f in
  let lo99, hi99 = R.slope_confidence_interval ~level:0.99 f in
  Alcotest.(check bool) "99% wider than 90%" true (lo99 < lo90 && hi99 > hi90);
  Alcotest.(check bool) "contains estimate" true (lo90 < f.R.slope && f.R.slope < hi90)

let test_invalid () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Regression.fit: length mismatch")
    (fun () -> ignore (R.fit ~xs:[| 1. |] ~ys:[| 1.; 2. |]));
  Alcotest.check_raises "too few" (Invalid_argument "Regression.fit: need at least 2 points")
    (fun () -> ignore (R.fit ~xs:[| 1. |] ~ys:[| 1. |]));
  Alcotest.check_raises "constant xs" (Invalid_argument "Regression.fit: xs are constant")
    (fun () -> ignore (R.fit ~xs:[| 2.; 2. |] ~ys:[| 1.; 3. |]))

let prop_residuals_sum_to_zero =
  QCheck.Test.make ~count:200 ~name:"OLS residuals sum to ~0"
    QCheck.(list_of_size Gen.(3 -- 30) (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))
    (fun points ->
      let points = List.mapi (fun i (_, y) -> (float_of_int i, y)) points in
      let xs = Array.of_list (List.map fst points) in
      let ys = Array.of_list (List.map snd points) in
      let f = R.fit ~xs ~ys in
      let sum = ref 0. in
      Array.iteri
        (fun i x -> sum := !sum +. (ys.(i) -. ((f.R.slope *. x) +. f.R.intercept)))
        xs;
      Float.abs !sum < 1e-6 *. float_of_int (Array.length xs))

let prop_r_squared_in_range =
  QCheck.Test.make ~count:200 ~name:"R^2 <= 1"
    QCheck.(list_of_size Gen.(3 -- 30) (float_range (-5.) 5.))
    (fun ys ->
      let ys = Array.of_list ys in
      let xs = Array.init (Array.length ys) float_of_int in
      let f = R.fit ~xs ~ys in
      f.R.r_squared <= 1. +. 1e-9)

let () =
  Alcotest.run "regression"
    [
      ( "unit",
        [
          Alcotest.test_case "exact line" `Quick test_exact_line;
          Alcotest.test_case "known fit" `Quick test_known_fit;
          Alcotest.test_case "noisy recovery" `Quick test_noisy_recovery;
          Alcotest.test_case "confidence widens" `Quick test_confidence_widens;
          Alcotest.test_case "invalid inputs" `Quick test_invalid;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [ prop_residuals_sum_to_zero; prop_r_squared_in_range ] );
    ]
