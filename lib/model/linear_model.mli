(** The paper's linear availability-response model (Eq. 4).

    Each (strategy, deployment-type, parameter) combination has coefficients
    (alpha, beta) such that the parameter achieved when deploying with
    worker availability [w] is [alpha * w + beta]. Quality and cost increase
    with availability; latency decreases (§5.1.1, Table 6). Inverting the
    model at a requested threshold yields the workforce requirement of §3.2:
    both inversion rules live in {!Workforce}
    ({!Workforce.workforce_requirement} and
    {!Workforce.workforce_requirement_paper}), beside the scan that inlines
    them. *)

type coeffs = { alpha : float; beta : float }

type t = { quality : coeffs; cost : coeffs; latency : coeffs }

val coeffs : t -> Params.axis -> coeffs

val response : coeffs -> float -> float
(** [response c w = c.alpha *. w +. c.beta]. *)

val estimate : t -> availability:float -> Params.t
(** Parameter triple achieved at the given availability, each component
    clamped to [\[0, 1\]]. *)

val fit : observations:(float * Params.t) array -> t
(** Least-squares fit of each parameter against availability. Requires at
    least 2 observations with non-constant availabilities. *)

val fit_detailed :
  observations:(float * Params.t) array ->
  t * (Params.axis * Stratrec_util.Regression.fit) list
(** Like {!fit} but also returns the per-axis regression diagnostics used by
    the Table 6 reproduction. *)

val synthetic : Stratrec_util.Rng.t -> t
(** The §5.2.2 generator: per axis, [alpha ~ U\[0.5, 1\]] and
    [beta = 1 - alpha], so every paper-rule workforce requirement lies in
    [\[0, 1\]]. *)

val pp : Format.formatter -> t -> unit
