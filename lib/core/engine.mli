(** The unified StratRec façade.

    Two entry points:

    - {!run} — the one-shot batch pipeline callers have always had: it
      owns a single consolidated configuration (embedding the
      {!Aggregator.config}), executes the full recommend → ADPaR-triage →
      deploy pipeline, reports failures as typed [result] errors instead
      of exceptions or process exits, and returns the run's per-request
      outcomes. A caller that wants the run's metrics or trace passes in
      its own registry and trace ({!with_metrics}, {!with_trace}) and
      reads them afterwards.

    - The {e session} API ({!create} / {!submit} / {!close}) — the same
      pipeline as a long-lived service: a session owns the metrics
      registry, deploy rng, circuit breaker and simulated deploy clock,
      and {!submit} runs one {e epoch} (a micro-batch of
      {!Request}s) against that persistent state. This is what the
      [stratrec-serve] daemon is built on: registries accumulate across
      epochs (one live [/metrics] surface), the circuit breaker carries
      its failure history from epoch to epoch, and the domain pool is
      reused instead of re-spawned. [run] is implemented as
      create → submit → close, so a single-epoch session is bit-identical
      to the one-shot path by construction.

    A {!report} holds one epoch's result and nothing of the session's
    state. Session metrics have one way out: {!session_metrics} on a
    session, or the registry the caller passed in. A session records
    spans and decisions only into a trace its caller passes with
    {!with_trace}; without one it traces nothing. The daemon reads
    {!session_metrics} when it is scraped, and once per epoch only with
    its flight recorder armed.

    The middle-layer framing of the paper (§2: StratRec sits between
    requesters and platforms) maps directly: requesters hand the engine a
    request batch, the engine triages it against the strategy catalog at
    the expected availability, and — when a {!deploy_config} is present —
    pushes every satisfied request's top recommendation onto the
    (simulated) platform and measures what came back.

    The deploy stage is resilient (DESIGN.md §5d): faults from the
    {!Stratrec_resilience.Fault} plan are injected into every platform
    interaction, and each satisfied request walks the
    {!Stratrec_resilience.Degrade} ladder — retry with backoff, fall back
    to the next recommendation, re-triage through ADPaR at relaxed
    thresholds — before the engine gives up with a typed
    {!rejection}. *)

(** Optional deployment stage: when present, each satisfied request's
    cheapest recommended strategy is deployed on the platform with its
    first stage combo, under the configured fault plan and resilience
    policy. *)
type deploy_config = {
  platform : Stratrec_crowdsim.Platform.t;
  kind : Stratrec_crowdsim.Task_spec.kind;
  window : Stratrec_crowdsim.Window.t;
  capacity : int;  (** workers per HIT *)
  faults : Stratrec_resilience.Fault.t;
      (** fault plan injected into every recruit/deploy;
          {!Stratrec_resilience.Fault.none} for a healthy platform *)
  resilience : Stratrec_resilience.Degrade.policy;
      (** the degradation ladder; {!Stratrec_resilience.Degrade.default}
          reproduces the single-shot deploy stage *)
}

type config = {
  aggregator : Aggregator.config;
      (** the aggregator configuration {!Aggregator.run} consumes *)
  metrics : Stratrec_obs.Registry.t option;
      (** [None] (the default) gives every run/session a fresh private
          registry, read through {!session_metrics}; supply a registry to
          read a {!run}'s metrics afterwards, or to accumulate across
          runs *)
  trace : Stratrec_obs.Trace.t;
      (** where runs and sessions record their spans and decisions;
          {!Stratrec_obs.Trace.noop} (the default) records nothing.
          Supply a trace to read a {!run}'s spans and decisions
          afterwards, or to accumulate them across epochs *)
  deploy : deploy_config option;  (** [None]: recommend-only *)
  domains : int;
      (** domains for the sharded triage path (see {!Aggregator.run});
          1 (the default) keeps everything on the calling domain. The
          report is bit-identical either way. Validated by {!run} and
          {!create}: values below 1, and counts the runtime cannot spawn
          (the shared pool is started there), are an [`Invalid_config]
          error *)
  profile : bool;
      (** when [true], wrap each run/epoch in {!Stratrec_obs.Profile.time}
          (recording [engine.run.wall_seconds] and the [engine.run.gc.*]
          allocation histograms) and — for [domains > 1] — switch the
          shared pool's utilization probes on for the duration, exporting
          them afterwards as [par.*] gauges
          ({!Stratrec_par.Pool.export}). Profiling adds only histograms
          and gauges, never counters, spans or decisions, so the report,
          counter set, span tree and decision log stay bit-identical to
          an unprofiled run at any domain count. Default [false] *)
  log : Stratrec_obs.Log.t;
      (** structured run log (default {!Stratrec_obs.Log.noop}): the
          engine emits an [info] record when a run starts (request /
          strategy / domain counts) and finishes (outcome tallies), and a
          [warn] per deploy-stage rejection, each correlated to the
          enclosing span of [trace] (no span id without one) *)
  cache : Triage_cache.config option;
      (** [Some config] gives the session a {!Triage_cache} (bound to
          the session registry for its [cache.*] counters), held by its
          {!Aggregator.memo}: BatchStrat requirements and ADPaR triage
          results are memoized across epochs on quantized (params, k)
          keys. The memo binds them to the session's catalog, W,
          aggregation and inversion rule, which a session never
          changes, so no entry goes stale and none is ever flushed.
          Reports stay bit-identical to an uncached run at any domain
          count — the [cache.*] counters and gauges are the only
          additions. Default [None] (no cache). Capacity must be >= 1
          ([`Invalid_config]) *)
}

val default_config : config
(** Aggregator defaults, private per-run metrics, no trace, no
    deployment, one domain. *)

(** {2 Config builders}

    Non-breaking construction: start from {!default_config} and override
    fields through setters, so downstream callers (serve, bench,
    examples) no longer pattern-match the full record and future config
    fields cannot break them. *)

val with_aggregator : config -> Aggregator.config -> config
val with_objective : config -> Objective.t -> config
(** Shorthand: replaces only the aggregator's objective. *)

val with_metrics : config -> Stratrec_obs.Registry.t -> config
val with_trace : config -> Stratrec_obs.Trace.t -> config
val with_deploy : config -> deploy_config option -> config
val with_domains : config -> int -> config
val with_profile : config -> bool -> config
val with_log : config -> Stratrec_obs.Log.t -> config
val with_cache : config -> Triage_cache.config option -> config

(** Why the degradation ladder gave up on a request. *)
type rejection =
  | Breaker_open  (** the circuit breaker refused the attempt *)
  | Deadline_exhausted
      (** the next attempt's backoff would overshoot the retry policy's
          deadline budget *)
  | All_attempts_empty
      (** every rung — including re-triage, when enabled — recruited no
          workers *)

val rejection_reason : rejection -> string
(** Human-readable binding reason for a {!rejection}. *)

type deploy_outcome =
  | Completed of Stratrec_crowdsim.Campaign.result
      (** some attempt recruited workers; its campaign result *)
  | Rejected of rejection

(** One rung execution of the ladder, in attempt order. *)
type attempt = {
  rung : Stratrec_resilience.Degrade.rung;
  strategy : Stratrec_model.Strategy.t;
  at_hours : float;
      (** simulated hours since the request's first attempt *)
  result : Stratrec_crowdsim.Campaign.result option;
      (** [None] when the circuit breaker short-circuited the attempt
          before it reached the platform *)
}

type deployed = {
  request : Request.t;  (** the request as submitted, envelope included *)
  strategy : Stratrec_model.Strategy.t;  (** the last strategy attempted *)
  outcome : deploy_outcome;
  attempts : attempt list;  (** full attempt history, oldest first *)
}

(** Triage tally of one epoch — the numbers this epoch adds to the
    [aggregator.*_total] counters. *)
type counts = {
  requests : int;
  satisfied : int;
  alternatives : int;
  workforce_limited : int;
  no_alternative : int;
}

(** Wall-stage durations of one epoch, read from the session registry's
    clock (so the daemon's wall-clocked registry yields wall seconds,
    the default [Sys.time] registry CPU seconds, and a disabled registry
    zeros). Purely additive observability: lineage never feeds back into
    triage or deploy decisions, so reports stay bit-identical across
    domain counts in every compared field. *)
type lineage = {
  triage_seconds : float;  (** recommend + ADPaR triage ({!Aggregator.run}) *)
  deploy_seconds : float;  (** resilience-ladder deploy stage; 0. without one *)
}

(** One epoch's result, and only that: the session's metrics are read
    through {!session_metrics} or from the registry the caller passed
    in, and its spans and decisions from the trace the caller passed
    in. *)
type report = {
  epoch : int;  (** 1-based epoch index within the session; 1 for {!run} *)
  aggregate : Aggregator.report;  (** full per-request outcomes *)
  counts : counts;
  deployed : deployed list;  (** empty without a {!deploy_config} *)
  lineage : lineage;  (** stage-duration breakdown of this epoch *)
}

type error =
  [ `Empty_catalog
  | `Invalid_config of string
    (** e.g. non-positive deploy capacity, malformed resilience policy *)
  | `Invalid_request of string  (** e.g. duplicate request ids *)
  | `Catalog of string  (** catalog file load/decode failure *)
  | `Session_closed  (** {!submit} after {!close} *) ]

val error_message : error -> string

val load_catalog : path:string -> (Stratrec_model.Strategy.t array, error) result
(** {!Stratrec_model.Codec} catalog loading with the error lifted into
    {!error} ([`Catalog]) — no exceptions, no exits. *)

(** {1 Sessions} *)

type session
(** A live engine: catalog, availability estimate, metrics registry,
    deploy rng, circuit breaker and simulated deploy clock, persistent
    across {!submit} epochs. Not thread-safe — one session per
    serving loop (the daemon's accept loop is single-threaded; triage
    parallelism lives inside the epoch via [config.domains]). *)

val create :
  ?config:config ->
  ?rng:Stratrec_util.Rng.t ->
  availability:Stratrec_model.Availability.t ->
  strategies:Stratrec_model.Strategy.t array ->
  unit ->
  (session, error) result
(** Validates the configuration and catalog up front ([`Empty_catalog],
    [`Invalid_config]) and allocates the persistent state: the registry
    (a fresh private one unless the config supplies it; read it with
    {!session_metrics}), the circuit breaker (when the deploy policy
    carries one — its failure history then spans epochs), and the
    simulated deploy clock at 0.
    The session keeps its own copy of [strategies]: mutating the
    caller's array afterwards changes nothing the session computes. It
    holds an {!Aggregator.memo} (with the triage cache, when
    [config.cache] asks for one), which the first epoch binds to that
    copy, by identity, at the session's W, aggregation and inversion
    rule: the catalog is re-estimated once per session instead of every
    epoch, and the first epoch that runs ADPaR builds the catalog's
    {!Adpar.skyband}, which every later ADPaR triage sweeps. Reports,
    decisions and spans are unchanged by it; [adpar.sweep_events_total]
    and [adpar.prune_cutoffs_total] count the skyband sweep, whose
    events never exceed what a stateless {!Adpar.exact} over the same
    catalog would record.
    [rng] drives the deploy stage only; when absent, a seed-2020
    generator is created lazily at the first deploying epoch, exactly as
    {!run} always did. *)

val submit :
  ?deadline_hours:float -> session -> Request.t list -> (report, error) result
(** Run one epoch: triage the micro-batch through BatchStrat + ADPaR
    (sharded over [config.domains]) and, with a deploy stage configured,
    walk every satisfied request down the resilience ladder. Counters
    accumulate in the session registry, and spans and decisions in
    [config.trace] (nowhere by default); the report carries this epoch's
    outcomes and no copy of either, so an epoch's cost does not grow
    with the registry. Read the cumulative counters with
    {!session_metrics} when they are wanted. A fixed request batch
    submitted as the first epoch of a fresh session yields a report
    bit-identical to {!run} on the same inputs, and leaves the session
    registry and the caller's trace with the same counters, span tree
    and decisions as the run's — at any domain count.

    [deadline_hours] caps the deploy retry policy's per-request deadline
    budget for this epoch (the serve layer passes the tightest remaining
    admission deadline, wiring queue deadlines into the
    {!Stratrec_resilience.Retry} machinery); when absent the policy's own
    budget applies unchanged. Must be positive ([`Invalid_request]).

    Errors: [`Session_closed] after {!close}, [`Invalid_request] on
    duplicate ids within the epoch. *)

val close : session -> unit
(** Marks the session closed ({!submit} then returns [`Session_closed]).
    Idempotent. Shared domain pools are process-wide and deliberately
    survive ({!Stratrec_par.Pool.shared}). *)

val epochs : session -> int
(** Epochs submitted so far. *)

val closed : session -> bool

val session_metrics : session -> Stratrec_obs.Snapshot.t
(** Live cumulative snapshot of the session registry, taken when called
    — the only way a session's metrics leave the engine. The daemon's
    [GET metrics] surface renders this via
    {!Stratrec_obs.Snapshot.to_openmetrics}. *)

val breaker_state : session -> Stratrec_resilience.Breaker.state option
(** The deploy circuit breaker's live state — [None] when the session
    has no breaker (no deploy stage, or a policy without one). The serve
    layer's health endpoint reads this. *)

val cache_stats : session -> Triage_cache.stats option
(** Lifetime hit/miss/eviction tallies and current residency of the
    session's triage cache — [None] when the session runs uncached. *)

val cache_hit_ratio : session -> float option
(** [hits / probes] of the session cache; [None] without one. The serve
    health surface reports this. *)

(** {1 One-shot} *)

val run :
  ?config:config ->
  ?rng:Stratrec_util.Rng.t ->
  availability:Stratrec_model.Availability.t ->
  strategies:Stratrec_model.Strategy.t array ->
  requests:Stratrec_model.Deployment.t array ->
  unit ->
  (report, error) result
(** One full pipeline run — a single-epoch session (create → submit →
    close), byte-identical to the historical one-shot engine. Validates
    up front (empty catalog, duplicate request ids, deploy capacity,
    resilience policy ranges), then never raises — under any fault plan,
    every satisfied request ends in a [Completed] campaign result or a
    typed [Rejected]. [rng] (default: a fresh seed-2020 generator) drives
    the deploy stage only — fault draws, recruitment and backoff jitter
    all flow through it, so runs are bit-reproducible from the seed;
    recommend-only runs are deterministic in their inputs. The engine
    also records [engine.runs_total], [engine.deploys_total] and the
    [engine.run_seconds] span in the run's registry.

    The session [run] opens is closed before it returns, so its
    registry is out of reach unless the caller owns it, and it traces
    only into a trace the caller passes: pass fresh ones with
    {!with_metrics} and {!with_trace}, then snapshot and render them
    after [run]. They hold exactly what the
    run recorded, everything listed below included.

    The deploy stage additionally records the resilience counters
    ([resilience.attempts_total], [resilience.retries_total],
    [resilience.fallbacks_total], [resilience.retriages_total],
    [resilience.breaker_open_total], [resilience.rejections_total], all
    registered at 0 up front), [resilience.breaker_trips_total] when a
    breaker is configured, the [resilience.sim_clock_hours] gauge, and —
    for non-empty fault plans — the [faults.*] injection counters.

    The run's trace carries an [engine.run] root span over the whole
    pipeline — the {!Aggregator.run} span tree (one [request] child per
    request, with an [adpar.exact] span below each triaged one) plus an
    [engine.deploy] span when a deploy stage runs. Under [engine.deploy],
    each satisfied request opens a [deploy.request] span with one
    [deploy.attempt] child per rung execution (attributes: attempt index,
    rung, strategy, simulated offset, outcome) and — when the ladder
    reaches re-triage — the [aggregator.retriage] span tree. *)
