(* Unit tests for descriptive statistics, special functions and the Welch
   t-test machinery backing Table 6 and Fig. 13. *)

module Stats = Stratrec_util.Stats

let close ?(eps = 1e-6) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let test_mean_variance () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  close "mean" 5. (Stats.mean xs);
  close "variance (sample)" 4.571428571 ~eps:1e-6 (Stats.variance xs);
  close "stddev" (sqrt 4.571428571) ~eps:1e-6 (Stats.stddev xs);
  close "std_error" (sqrt 4.571428571 /. sqrt 8.) ~eps:1e-6 (Stats.std_error xs)

let test_degenerate () =
  close "variance of singleton" 0. (Stats.variance [| 3. |]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty array") (fun () ->
      ignore (Stats.mean [||]))

let test_min_max_quantiles () =
  let xs = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  let lo, hi = Stats.min_max xs in
  close "min" 1. lo;
  close "max" 9. hi;
  close "median" 3.5 (Stats.quantile xs 0.5);
  close "q0" 1. (Stats.quantile xs 0.);
  close "q1" 9. (Stats.quantile xs 1.);
  close "q0.25 interpolated" 1.75 (Stats.quantile xs 0.25)

let test_summary () =
  let s = Stats.summarize [| 1.; 2.; 3. |] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  close "mean" 2. s.Stats.mean;
  close "min" 1. s.Stats.min;
  close "max" 3. s.Stats.max

let test_log_gamma () =
  (* Gamma(5) = 24, Gamma(0.5) = sqrt(pi). *)
  close "log_gamma 5" (log 24.) ~eps:1e-10 (Stats.log_gamma 5.);
  close "log_gamma 0.5" (log (sqrt Float.pi)) ~eps:1e-10 (Stats.log_gamma 0.5);
  close "log_gamma 1" 0. ~eps:1e-10 (Stats.log_gamma 1.);
  close "log_gamma 10.5"
    (log (9.5 *. 8.5 *. 7.5 *. 6.5 *. 5.5 *. 4.5 *. 3.5 *. 2.5 *. 1.5 *. 0.5 *. sqrt Float.pi))
    ~eps:1e-9 (Stats.log_gamma 10.5)

let test_incomplete_beta () =
  close "I_0" 0. (Stats.incomplete_beta ~a:2. ~b:3. ~x:0.);
  close "I_1" 1. (Stats.incomplete_beta ~a:2. ~b:3. ~x:1.);
  (* I_x(1,1) = x. *)
  close "uniform case" 0.42 ~eps:1e-9 (Stats.incomplete_beta ~a:1. ~b:1. ~x:0.42);
  (* I_x(2,2) = x^2 (3 - 2x). *)
  close "a=b=2" (0.3 ** 2. *. (3. -. 0.6)) ~eps:1e-9 (Stats.incomplete_beta ~a:2. ~b:2. ~x:0.3);
  (* Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a). *)
  close "symmetry"
    (1. -. Stats.incomplete_beta ~a:5. ~b:2. ~x:0.7)
    ~eps:1e-9
    (Stats.incomplete_beta ~a:2. ~b:5. ~x:0.3)

let test_t_cdf () =
  close "symmetry at 0" 0.5 ~eps:1e-9 (Stats.t_cdf ~df:7. 0.);
  (* Standard table: t_{0.975, 10} = 2.228. *)
  close "df=10 97.5%" 0.975 ~eps:5e-4 (Stats.t_cdf ~df:10. 2.228);
  (* Large df approaches the normal: Phi(1.96) ~ 0.975. *)
  close "df=1000 near normal" 0.975 ~eps:2e-3 (Stats.t_cdf ~df:1000. 1.96);
  (* t with df=1 is Cauchy: CDF(1) = 3/4. *)
  close "cauchy at 1" 0.75 ~eps:1e-6 (Stats.t_cdf ~df:1. 1.)

let test_t_quantile () =
  close "roundtrip" 2.228 ~eps:1e-3 (Stats.t_quantile ~df:10. 0.975);
  close "median" 0. ~eps:1e-6 (Stats.t_quantile ~df:5. 0.5);
  let t = Stats.t_quantile ~df:23. 0.9 in
  close "quantile inverts cdf" 0.9 ~eps:1e-9 (Stats.t_cdf ~df:23. t)

let test_welch () =
  (* Two clearly separated samples must be significant. *)
  let xs = [| 10.; 11.; 9.; 10.5; 10.2; 9.8 |] in
  let ys = [| 5.; 5.5; 4.8; 5.2; 5.1; 4.9 |] in
  let r = Stats.welch_t_test xs ys in
  Alcotest.(check bool) "significant" true r.Stats.significant_at_5pct;
  Alcotest.(check bool) "t positive" true (r.Stats.t_statistic > 0.);
  (* Identical samples: t = 0, p = 1. *)
  let r0 = Stats.welch_t_test xs xs in
  close "t zero" 0. r0.Stats.t_statistic;
  close "p one" 1. ~eps:1e-9 r0.Stats.p_value;
  (* Overlapping noisy samples: not significant. *)
  let a = [| 1.; 2.; 3.; 4.; 5. |] and b = [| 1.5; 2.5; 2.9; 4.1; 4.6 |] in
  let r1 = Stats.welch_t_test a b in
  Alcotest.(check bool) "not significant" false r1.Stats.significant_at_5pct

let test_paired () =
  (* A consistent small per-pair improvement is significant for the paired
     test even when the unpaired Welch test misses it. *)
  let base = [| 10.; 12.; 9.; 14.; 11.; 13.; 10.5; 12.5 |] in
  let improved = Array.map (fun x -> x +. 0.5) base in
  let paired = Stats.paired_t_test improved base in
  Alcotest.(check bool) "paired detects the shift" true paired.Stats.significant_at_5pct;
  let welch = Stats.welch_t_test improved base in
  Alcotest.(check bool) "welch misses it" false welch.Stats.significant_at_5pct;
  (* Identical arrays: t = 0. *)
  let same = Stats.paired_t_test base base in
  close "t zero" 0. same.Stats.t_statistic;
  Alcotest.check_raises "length mismatch" (Invalid_argument "Stats.paired_t_test: length mismatch")
    (fun () -> ignore (Stats.paired_t_test base [| 1. |]));
  Alcotest.check_raises "too short" (Invalid_argument "Stats.paired_t_test: need at least 2 pairs")
    (fun () -> ignore (Stats.paired_t_test [| 1. |] [| 1. |]))

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "min/max/quantiles" `Quick test_min_max_quantiles;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "special functions",
        [
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "incomplete beta" `Quick test_incomplete_beta;
          Alcotest.test_case "t cdf" `Quick test_t_cdf;
          Alcotest.test_case "t quantile" `Quick test_t_quantile;
        ] );
      ( "inference",
        [
          Alcotest.test_case "welch t-test" `Quick test_welch;
          Alcotest.test_case "paired t-test" `Quick test_paired;
        ] );
    ]
