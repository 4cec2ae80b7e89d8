(** Descriptive statistics and hypothesis testing.

    The paper reports means over 10 runs with standard-error bars, fits with
    90% confidence intervals (Table 6), and statistical significance of the
    StratRec vs. no-StratRec comparison (Fig. 13). This module provides the
    required machinery, including an implementation of the regularized
    incomplete beta function for Student-t tail probabilities. *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val variance : float array -> float
(** Unbiased sample variance (denominator n-1); 0 for arrays of length < 2. *)

val stddev : float array -> float
val std_error : float array -> float

val min_max : float array -> float * float
(** Requires a non-empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [0,1], linear interpolation between order
    statistics. Requires a non-empty array. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  std_error : float;
  min : float;
  max : float;
}

val summarize : float array -> summary
(** Requires a non-empty array. *)

(** {1 Special functions} *)

val log_gamma : float -> float
(** Lanczos approximation, accurate to ~1e-13 for positive arguments. *)

val incomplete_beta : a:float -> b:float -> x:float -> float
(** Regularized incomplete beta I_x(a,b) by continued fraction. *)

(** {1 Student's t} *)

val t_cdf : df:float -> float -> float
(** CDF of Student's t with [df] degrees of freedom. *)

val t_quantile : df:float -> float -> float
(** Inverse CDF by bisection. [t_quantile ~df p] with [p] in (0,1). *)

type t_test_result = {
  t_statistic : float;
  degrees_of_freedom : float;
  p_value : float;  (** two-sided *)
  significant_at_5pct : bool;
}

val welch_t_test : float array -> float array -> t_test_result
(** Two-sample Welch t-test (unequal variances). Requires both samples to
    have at least 2 elements. *)

val paired_t_test : float array -> float array -> t_test_result
(** Paired t-test on per-index differences — the natural test for the
    §5.1.2 mirror deployments, where each task is run once per arm.
    Requires equal lengths of at least 2. *)
