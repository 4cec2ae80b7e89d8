(** BatchStrat — the unified greedy algorithm for Batch Deployment
    Recommendation (Problem 1, §3).

    Given the workforce-requirement matrix, the per-request aggregation
    (Sum- or Max-case) and available workforce W, BatchStrat sorts requests
    by [f_i / w_i] non-increasing and adds them greedily. For Throughput
    (f_i = 1, i.e. ascending workforce) the greedy solution is exact
    (Theorem 2); for Pay-off the result is the better of the greedy set and
    the best single request, a 1/2-approximation (Theorem 3). *)

type satisfied = {
  request_index : int;
  strategy_indices : int list;
      (** the k recommended strategies (indices into the matrix catalog),
          ascending workforce requirement *)
  workforce : float;  (** aggregated requirement \vec{w}_i *)
}

type outcome = {
  satisfied : satisfied list;  (** in greedy acceptance order *)
  unsatisfied : int list;
      (** request indices to forward to ADPaR, in input order: requests that
          lack k feasible strategies or did not fit in W *)
  objective_value : float;
  workforce_used : float;
}

val select :
  ?metrics:Stratrec_obs.Registry.t ->
  ?trace:Stratrec_obs.Trace.t ->
  objective:Objective.t ->
  available:float ->
  requests:Stratrec_model.Deployment.t array ->
  Stratrec_model.Workforce.request_requirement option array ->
  outcome
(** The greedy over each request's aggregated requirement: one slot per
    request, [None] for a request without [d.k] feasible strategies.
    O(m log m). [available] is the expected workforce W in [\[0, 1\]]
    (values above 1 are allowed and simply relax the budget). Raises
    [Invalid_argument] when [requirements] and [requests] differ in
    length.

    The {!Aggregator} computes each requirement with
    {!Stratrec_model.Workforce.streaming_requirement}, sharded over its
    domain pool or replayed from its triage cache, so no triage path
    builds a matrix. Everything here runs on the calling domain.

    [metrics] (default {!Stratrec_obs.Registry.noop}) records
    [batchstrat.runs_total], [batchstrat.candidates_total],
    [batchstrat.greedy_passes_total], the [batchstrat.greedy_seconds]
    span and the [batchstrat.workforce_utilization] gauge.

    [trace] (default {!Stratrec_obs.Trace.noop}) opens a
    [batchstrat.run] span (attributes: objective, available workforce,
    satisfied count, workforce consumed) with [batchstrat.prune]
    (candidate collection and density sort; request/candidate counts)
    and [batchstrat.greedy] (greedy fill plus the Theorem 3 best-single
    correction) children. *)

val run :
  ?metrics:Stratrec_obs.Registry.t ->
  ?trace:Stratrec_obs.Trace.t ->
  objective:Objective.t ->
  aggregation:Stratrec_model.Workforce.aggregation ->
  available:float ->
  Stratrec_model.Workforce.matrix ->
  outcome
(** {!select} over a workforce-requirement matrix: each row aggregated
    with {!Stratrec_model.Workforce.request_requirement} (O(m |S| log k)),
    each request at its own cardinality constraint [d.k]. The §5.2
    experiments and their baselines work on matrices; the served path
    calls {!select}. *)

val satisfied_count : outcome -> int
