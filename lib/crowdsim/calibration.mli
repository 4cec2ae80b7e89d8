(** Fitting availability-response models from campaign data (Table 6).

    Given the (availability, measured parameters) observations of repeated
    deployments, fit the per-axis linear models and check whether reference
    coefficients lie within the fit's confidence intervals — the paper's
    90%-significance validation of the linearity assumption. *)

type t = {
  model : Stratrec_model.Linear_model.t;  (** fitted (alpha, beta) per axis *)
  diagnostics : (Stratrec_model.Params.axis * Stratrec_util.Regression.fit) list;
}

val fit : observations:(float * Stratrec_model.Params.t) array -> t
(** @raise Invalid_argument with fewer than 3 observations or constant
    availabilities. *)

val within_reference :
  ?level:float -> t -> reference:Stratrec_model.Linear_model.t ->
  (Stratrec_model.Params.axis * bool) list
(** Per axis, whether the reference (alpha, beta) lies within the fitted
    [level] (default 0.9) confidence intervals. *)

val r_squared : t -> Stratrec_model.Params.axis -> float

val pp : Format.formatter -> t -> unit
