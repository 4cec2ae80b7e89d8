(** Baselines for Batch Deployment Recommendation (§5.2.1).

    [Brute Force] examines every subset of requests and is exponential in
    the batch size m; [BaselineG] is the plain density-greedy without
    BatchStrat's best-single correction, so it carries no approximation
    guarantee for pay-off. Both report outcomes in {!Batchstrat.outcome}
    form for side-by-side comparison. *)

val brute_force :
  objective:Objective.t ->
  aggregation:Stratrec_model.Workforce.aggregation ->
  available:float ->
  Stratrec_model.Workforce.matrix ->
  Batchstrat.outcome
(** Optimal subset by exhaustive enumeration with branch-and-bound
    pruning (suffix-sum bound). O(2^m) worst case; tractable far beyond
    that when the workforce budget only admits small subsets, but callers
    should keep m small whenever the budget is generous. *)

val baseline_g :
  objective:Objective.t ->
  aggregation:Stratrec_model.Workforce.aggregation ->
  available:float ->
  Stratrec_model.Workforce.matrix ->
  Batchstrat.outcome
(** Greedy by [f_i / w_i] only (§5.2.1's BaselineG). *)

val approximation_factor : exact:Batchstrat.outcome -> approx:Batchstrat.outcome -> float
(** [approx.objective_value / exact.objective_value]; 1.0 when both are 0. *)
