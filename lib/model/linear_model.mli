(** The paper's linear availability-response model (Eq. 4).

    Each (strategy, deployment-type, parameter) combination has coefficients
    (alpha, beta) such that the parameter achieved when deploying with
    worker availability [w] is [alpha * w + beta]. Quality and cost increase
    with availability; latency decreases (§5.1.1, Table 6). Inverting the
    model at a requested threshold yields the workforce requirement of §3.2.

    Two inversion rules are provided. The paper's §3.2 rule solves every
    axis at equality and takes the max; that is well-defined when all three
    axes behave as lower bounds on workforce, which holds in the synthetic
    setup of §5.2.2 (every axis gets [alpha > 0], [beta = 1 - alpha]). With
    realistic signs, cost is an {e upper} bound that grows with workforce,
    so meeting a cost budget caps the workforce instead of requiring it; the
    direction-aware rule {!workforce_requirement} accounts for that: it
    takes the max of the lower-bounding axes and checks it against every
    cap. The two coincide whenever no axis produces a cap. *)

type coeffs = { alpha : float; beta : float }

type t = { quality : coeffs; cost : coeffs; latency : coeffs }

val coeffs : t -> Params.axis -> coeffs

val response : coeffs -> float -> float
(** [response c w = c.alpha *. w +. c.beta]. *)

val estimate : t -> availability:float -> Params.t
(** Parameter triple achieved at the given availability, each component
    clamped to [\[0, 1\]]. *)

val workforce_requirement : t -> request:Params.t -> float option
(** Direction-aware minimum availability meeting all three thresholds:
    max of the lower bounds (at least 0), provided it does not exceed 1 or
    any upper bound; [None] when infeasible. *)

val workforce_requirement_paper : t -> request:Params.t -> float option
(** The literal §3.2 rule: solve each axis at equality, clamp negatives to
    0, take the max; [None] if any axis is unsolvable or its solution
    exceeds 1. Matches the synthetic experiments of §5.2.2. *)

val min_workforce : t -> request:Params.t -> float
(** {!workforce_requirement} as a bare float, [infinity] when infeasible
    (no feasible requirement exceeds 1). Both are this one straight-line
    definition: a call allocates nothing but the box of its result, which
    is what the per-cell workforce scan ({!Workforce}) calls. *)

val min_workforce_paper : t -> request:Params.t -> float
(** {!workforce_requirement_paper} as a bare float, [infinity] when
    infeasible. *)

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
    [beta = 1 - alpha], so every workforce requirement lies in [\[0, 1\]]. *)

val pp : Format.formatter -> t -> unit
