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

val run :
  ?metrics:Stratrec_obs.Registry.t ->
  ?trace:Stratrec_obs.Trace.t ->
  ?requirements:Stratrec_model.Workforce.request_requirement option array ->
  objective:Objective.t ->
  aggregation:Stratrec_model.Workforce.aggregation ->
  available:float ->
  Stratrec_model.Workforce.matrix ->
  outcome
(** Each request uses its own cardinality constraint [d.k]. O(m log m)
    after the O(m |S| log k) aggregation. [available] is the expected
    workforce W in [\[0, 1\]] (values above 1 are allowed and simply relax
    the budget).

    [requirements] supplies the per-request row aggregations directly
    (one slot per matrix request, [None] for rows without k feasible
    strategies), and the prune phase then never reads the matrix cells.
    The {!Aggregator} always passes
    them: it computes each with
    {!Stratrec_model.Workforce.streaming_requirement}, sharded over its
    domain pool or replayed from its triage cache, so no triage path
    builds a matrix. The array must agree with what
    {!Stratrec_model.Workforce.request_requirement} would return;
    everything downstream (and every observable output) is then
    identical (raises [Invalid_argument] on a length mismatch). Without
    it the prune phase aggregates the matrix rows itself.

    Everything here runs on the calling domain; there is no pool
    argument. Parallelism belongs to whoever computes [requirements]:
    the aggregator shards that over its pool.

    [metrics] (default {!Stratrec_obs.Registry.noop}) records
    [batchstrat.runs_total], [batchstrat.candidates_total],
    [batchstrat.greedy_passes_total], the [batchstrat.greedy_seconds]
    span and the [batchstrat.workforce_utilization] gauge.

    [trace] (default {!Stratrec_obs.Trace.noop}) opens a
    [batchstrat.run] span (attributes: objective, available workforce,
    satisfied count, workforce consumed) with [batchstrat.prune]
    (candidate aggregation and density sort; request/candidate counts)
    and [batchstrat.greedy] (greedy fill plus the Theorem 3 best-single
    correction) children. *)

val satisfied_count : outcome -> int
