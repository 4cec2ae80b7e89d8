(** The StratRec middle layer (Fig. 1, §2.2).

    The Aggregator receives a batch of deployment requests, estimates
    worker availability from its pdf, re-estimates every strategy's
    parameters at that availability (Deployment Strategy Modeling), computes
    each request's workforce requirement — the paper's vector, one catalog
    scan per request ({!Stratrec_model.Workforce.streaming_requirement}),
    without materializing the matrix (Workforce Requirement Computation) —
    runs the optimization-guided batch deployment (BatchStrat), and
    forwards each unsatisfied request to ADPaR for an alternative-parameter
    recommendation. *)

type config = {
  objective : Objective.t;
  aggregation : Stratrec_model.Workforce.aggregation;
  reestimate_parameters : bool;
      (** when true (the default configuration), strategy parameter triples
          are recomputed from their linear models at the estimated
          availability before matching *)
  inversion_rule : [ `Direction_aware | `Paper_equality ];
      (** workforce inversion rule, see
          {!Stratrec_model.Workforce.compute} *)
}

val default_config : config
(** Throughput objective, Max-case aggregation, re-estimation on,
    direction-aware inversion. *)

type request_outcome =
  | Satisfied of {
      strategies : Stratrec_model.Strategy.t list;  (** the k recommendations *)
      workforce : float;
    }
  | Alternative of Adpar.result
      (** the request could not be served; ADPaR's closest alternative *)
  | Workforce_limited
      (** the thresholds already admit k strategies — ADPaR would return
          the request unchanged — but the batch workforce budget was
          exhausted; the requester should retry when availability rises *)
  | No_alternative
      (** fewer strategies than the cardinality constraint exist at all *)

type report = {
  config : config;
  availability : float;  (** expected workforce W *)
  strategies : Stratrec_model.Strategy.t array;  (** catalog after re-estimation *)
  outcomes : (Stratrec_model.Deployment.t * request_outcome) array;
      (** one per request, in input order *)
  objective_value : float;
  workforce_used : float;
}

type memo
(** What a caller that runs many batches over one catalog keeps between
    runs: the catalog re-estimated at W, the ADPaR {!Adpar.skyband} of
    that re-estimated array, and optionally a {!Triage_cache}. An
    {!Engine} session holds one. Not thread-safe: pass it to one run at
    a time. *)

val memo : ?cache:Triage_cache.t -> unit -> memo
(** An unbound memo. Its first run binds it, for good, to that run's
    [strategies] array (by identity, not contents), the W it
    re-estimates at (none when its config does not re-estimate), and its
    config's aggregation and inversion rule; every later run through it
    must pass the same four (the objective is free: no memoized value
    depends on it). So a memo never re-estimates, and [cache], whose
    entries depend only on those four and the request, never holds a
    stale entry. Give a cache to one memo only, and do not mutate the
    array while a memo is bound to it. *)

val run :
  ?config:config ->
  ?metrics:Stratrec_obs.Registry.t ->
  ?trace:Stratrec_obs.Trace.t ->
  ?domains:int ->
  ?memo:memo ->
  availability:Stratrec_model.Availability.t ->
  strategies:Stratrec_model.Strategy.t array ->
  requests:Stratrec_model.Deployment.t array ->
  unit ->
  report
(** One batch run.

    [domains] (default 1) computes the embarrassingly parallel parts —
    the per-request workforce requirements and the ADPaR answers
    ({!Adpar.answer}) of unsatisfied requests — sharded over a
    {!Stratrec_par.Pool.shared} pool of that many domains. Shards
    record nothing: the calling domain records every answer through
    {!Adpar.record}, in request order, inside the per-request triage
    code the sequential loop runs, so the report, every counter, the
    span tree (ids included) and the decision order are bit-identical
    to [~domains:1]. Only span/decision timing values differ — they are
    clock readings either way. The greedy fill itself and the satisfied
    loop stay sequential; they are O(m log m) and order-dependent.
    @raise Invalid_argument when [domains < 1].

    [memo] keeps the re-estimated catalog across runs: every run through
    one memo matches against the very same array, re-estimated once at
    the memo's first run. Beside it the memo keeps the catalog's
    {!Adpar.skyband}, built on the calling domain at the first run that
    computes an ADPaR triage, before any shard starts; every ADPaR
    search of the run, live, cached or sharded, then sweeps only the
    skyband. The report, every decision and span are those of a run
    without a memo, and so is every counter except
    [adpar.sweep_events_total] and [adpar.prune_cutoffs_total], which
    count the smaller sweep. Without a memo each run re-estimates the
    catalog and ADPaR sweeps all of it.
    @raise Invalid_argument when [memo] is bound to another catalog
    array, W, aggregation or inversion rule (see {!memo}).

    A memo's cache memoizes the two pure per-request computations
    across runs ({!Triage_cache}): the BatchStrat requirements and the
    ADPaR triage of unsatisfied requests. The run probes and stores
    only from the calling domain, and computes misses sharded when
    [domains > 1]. A triage entry is an {!Adpar.answer}, recorded like
    any other answer, so the report, counters, span tree and decisions
    are bit-identical to an uncached run at any domain count — only the
    [cache.*] counters and gauges (absent without a cache) differ.
    Without a pool each request is probed, computed and stored in turn,
    so a repeat later in the batch already hits; with one, every
    request is probed first.

    [metrics] (default {!Stratrec_obs.Registry.noop})
    records [aggregator.batches_total], [aggregator.requests_total], the
    triage counters [aggregator.satisfied_total] /
    [aggregator.alternative_total] / [aggregator.workforce_limited_total]
    / [aggregator.no_alternative_total], the [aggregator.batch_seconds]
    and per-request [aggregator.triage_seconds] spans, the
    [aggregator.availability] and [aggregator.workforce_used] gauges, and
    [adpar.fallback_total] (one per request forwarded to ADPaR); the same
    registry is threaded into {!Batchstrat.select} and {!Adpar.record}.

    What the timings cover. Every one reads the [metrics] registry's
    clock, on whichever domain it runs.
    - [aggregator.batch_seconds]: the whole run, on every path.
    - Uncached at one domain, each unsatisfied request runs
      {!Adpar.exact} live: [adpar.search_seconds] is that search, and
      [aggregator.triage_seconds] is the search plus recording it and
      the request's outcome.
    - With a cache, or at several domains, the answers are computed
      before any is recorded. [adpar.search_seconds] is still the
      search that produced the answer: on a cache hit, the stored
      search of the miss that computed it, recorded again. And
      [aggregator.triage_seconds] covers only recording the answer and
      the outcome.

    [trace] (default {!Stratrec_obs.Trace.noop}) opens an
    [aggregator.batch] span with the {!Batchstrat.select} span and one
    [request] span per request as children (attributes: request index,
    label, outcome); unsatisfied [request] spans contain the
    {!Adpar.exact} span. Every request additionally records one
    {!Stratrec_obs.Trace.decision}: [Satisfied] with the workforce and
    strategy labels, [Triaged] with ADPaR's alternative triple and L2
    distance, or [Rejected] with the binding constraint. *)

val retriage :
  ?metrics:Stratrec_obs.Registry.t ->
  ?trace:Stratrec_obs.Trace.t ->
  ?relax:float ->
  strategies:Stratrec_model.Strategy.t array ->
  Stratrec_model.Deployment.t ->
  (Stratrec_model.Deployment.t * Adpar.result) option
(** Degraded-mode triage: relax the request's thresholds by [relax]
    (default 0.15) per axis — quality lower bound lowered, cost and
    latency upper bounds raised, all clamped to [\[0, 1\]] — and rerun
    {!Adpar.exact} against the relaxed request. Returns the relaxed
    request together with ADPaR's result ([None] when the catalog is
    smaller than the cardinality constraint). This is the third rung of
    the engine's degradation ladder: when every deployment attempt of a
    satisfied request comes back empty, the engine re-triages it here and
    deploys the cheapest strategy the relaxed alternative admits.

    Records [aggregator.retriage_total] and opens an
    [aggregator.retriage] span (request, relax, resulting distance) with
    the {!Adpar.exact} span as its child.
    @raise Invalid_argument if [relax] is outside [\[0, 1\]]. *)

val satisfied : report -> (Stratrec_model.Deployment.t * Stratrec_model.Strategy.t list) list
val alternatives : report -> (Stratrec_model.Deployment.t * Adpar.result) list
val workforce_limited : report -> Stratrec_model.Deployment.t list

val pp_report : Format.formatter -> report -> unit
