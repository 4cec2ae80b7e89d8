(** Ordinary least-squares simple linear regression.

    The paper fits each deployment parameter as a linear function of worker
    availability, [param = alpha * w + beta] (Eq. 4), and reports that the
    estimated (alpha, beta) lie within the 90% confidence interval of the
    fitted line (Table 6). This module provides the fit, goodness-of-fit and
    confidence intervals. *)

type fit = {
  slope : float;  (** alpha *)
  intercept : float;  (** beta *)
  r_squared : float;
  residual_std : float;  (** sqrt(SSE / (n - 2)), 0 when n <= 2 *)
  slope_std_error : float;
  intercept_std_error : float;
  n : int;
}

val fit : xs:float array -> ys:float array -> fit
(** Least-squares fit of [ys] against [xs]. Requires equal lengths, at least
    2 points, and non-constant [xs]. *)

val slope_confidence_interval : level:float -> fit -> float * float
(** CI for the slope at [level] (e.g. 0.9). Requires [n >= 3]. *)

val within_confidence : level:float -> fit -> slope:float -> intercept:float -> bool
(** Whether a reference (slope, intercept) lies inside both CIs — the
    paper's Table 6 validation criterion. *)

val pp_fit : Format.formatter -> fit -> unit
