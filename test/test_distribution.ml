(* Unit and statistical tests for the distribution substrate, including the
   discrete availability pdf of §2.1. *)

module Rng = Stratrec_util.Rng
module D = Stratrec_util.Distribution

let empirical_mean dist seed n =
  let rng = Rng.create seed in
  let samples = Array.init n (fun _ -> D.sample dist rng) in
  Array.fold_left ( +. ) 0. samples /. float_of_int n

let test_uniform () =
  let dist = D.Uniform { lo = 1.; hi = 3. } in
  Alcotest.(check (float 1e-9)) "analytic mean" 2. (D.mean dist);
  Alcotest.(check bool) "empirical mean" true
    (Float.abs (empirical_mean dist 1 20_000 -. 2.) < 0.02);
  let rng = Rng.create 2 in
  for _ = 1 to 500 do
    let v = D.sample dist rng in
    Alcotest.(check bool) "bounds" true (v >= 1. && v < 3.)
  done

let test_normal () =
  let dist = D.Normal { mu = -2.; sigma = 0.5 } in
  Alcotest.(check (float 1e-9)) "analytic mean" (-2.) (D.mean dist);
  Alcotest.(check bool) "empirical mean" true
    (Float.abs (empirical_mean dist 3 20_000 +. 2.) < 0.02)

let test_truncated_normal () =
  let dist = D.Truncated_normal { mu = 0.75; sigma = 0.1; lo = 0.; hi = 1. } in
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = D.sample dist rng in
    Alcotest.(check bool) "bounds" true (v >= 0. && v <= 1.)
  done;
  (* Nearly untruncated: mean stays near mu (the upper cut at 2.5 sigma
     shifts it down by ~0.0018). *)
  Alcotest.(check bool) "analytic mean near mu" true (Float.abs (D.mean dist -. 0.75) < 3e-3);
  (* Heavily truncated from below: mean moves up. *)
  let cut = D.Truncated_normal { mu = 0.; sigma = 1.; lo = 0.; hi = 10. } in
  Alcotest.(check bool) "half-normal mean" true
    (Float.abs (D.mean cut -. sqrt (2. /. Float.pi)) < 1e-3)

let test_exponential_and_constant () =
  let dist = D.Exponential { rate = 4. } in
  Alcotest.(check (float 1e-9)) "analytic mean" 0.25 (D.mean dist);
  Alcotest.(check bool) "empirical" true
    (Float.abs (empirical_mean dist 5 20_000 -. 0.25) < 0.01);
  let c = D.Constant 7. in
  Alcotest.(check (float 1e-9)) "constant mean" 7. (D.mean c);
  Alcotest.(check (float 1e-9)) "constant sample" 7. (D.sample c (Rng.create 6))

let test_erf () =
  Alcotest.(check (float 1e-6)) "erf 0" 0. (D.erf 0.);
  Alcotest.(check (float 1e-6)) "erf 1" 0.8427008 (D.erf 1.);
  Alcotest.(check (float 1e-6)) "erf -1" (-0.8427008) (D.erf (-1.));
  Alcotest.(check (float 1e-6)) "erf 2" 0.9953223 (D.erf 2.)

let test_discrete_expectation () =
  (* The paper's example: 70% chance of 7% of workers, 30% of 2% -> 5.5%. *)
  let pdf = D.Discrete.create [ (0.07, 0.7); (0.02, 0.3) ] in
  Alcotest.(check (float 1e-9)) "expectation" 0.055 (D.Discrete.expectation pdf)

let test_discrete_normalization () =
  let pdf = D.Discrete.create [ (1., 2.); (2., 6.) ] in
  let outcomes = D.Discrete.outcomes pdf in
  Alcotest.(check (float 1e-9)) "p1" 0.25 (List.assoc 1. outcomes);
  Alcotest.(check (float 1e-9)) "p2" 0.75 (List.assoc 2. outcomes);
  Alcotest.(check (float 1e-9)) "expectation" 1.75 (D.Discrete.expectation pdf)

let test_discrete_sampling () =
  let pdf = D.Discrete.create [ (10., 0.2); (20., 0.8) ] in
  let rng = Rng.create 7 in
  let n = 20_000 in
  let tens = ref 0 in
  for _ = 1 to n do
    if D.Discrete.sample pdf rng = 10. then incr tens
  done;
  let freq = float_of_int !tens /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.2" true (Float.abs (freq -. 0.2) < 0.01)

let test_discrete_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Distribution.Discrete.create: empty outcome list") (fun () ->
      ignore (D.Discrete.create []));
  Alcotest.check_raises "negative"
    (Invalid_argument "Distribution.Discrete.create: negative probability") (fun () ->
      ignore (D.Discrete.create [ (1., -0.5) ]));
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Distribution.Discrete.create: zero total weight") (fun () ->
      ignore (D.Discrete.create [ (1., 0.) ]))

let prop_discrete_samples_are_outcomes =
  QCheck.Test.make ~count:200 ~name:"discrete samples come from the outcome set"
    QCheck.(list_of_size Gen.(1 -- 5) (pair (float_bound_exclusive 10.) (float_range 0.1 2.)))
    (fun pairs ->
      let pdf = D.Discrete.create pairs in
      let rng = Rng.create 8 in
      let values = List.map fst pairs in
      List.for_all
        (fun _ -> List.mem (D.Discrete.sample pdf rng) values)
        (List.init 20 Fun.id))

let () =
  Alcotest.run "distribution"
    [
      ( "continuous",
        [
          Alcotest.test_case "uniform" `Slow test_uniform;
          Alcotest.test_case "normal" `Slow test_normal;
          Alcotest.test_case "truncated normal" `Quick test_truncated_normal;
          Alcotest.test_case "exponential/constant" `Slow test_exponential_and_constant;
          Alcotest.test_case "erf" `Quick test_erf;
        ] );
      ( "discrete",
        [
          Alcotest.test_case "expectation (paper example)" `Quick test_discrete_expectation;
          Alcotest.test_case "normalization" `Quick test_discrete_normalization;
          Alcotest.test_case "sampling frequencies" `Slow test_discrete_sampling;
          Alcotest.test_case "invalid inputs" `Quick test_discrete_invalid;
          Tq.to_alcotest prop_discrete_samples_are_outcomes;
        ] );
    ]
