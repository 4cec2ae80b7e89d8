(** Online (stream-like) deployment recommendation — the paper's §7 open
    problem: requests arrive one at a time, may be revoked, and the
    workforce budget replenishes as deployments finish or new workers show
    up.

    The policy is greedy-online: an arriving request is admitted iff its
    aggregated workforce requirement fits the remaining budget; otherwise
    it receives the same triage as the batch Aggregator (an ADPaR
    alternative, a workforce-limited notice, or no-alternative). Revoking
    an admitted request returns its workforce to the pool. No
    competitive-ratio claim is made — this is the baseline the open
    problem asks to beat — but the accounting invariants (budget
    conservation, no over-commitment) are tested. *)

type t

type decision =
  | Admitted of {
      strategies : Stratrec_model.Strategy.t list;  (** the k recommendations *)
      workforce : float;  (** reserved from the pool *)
    }
  | Alternative of Adpar.result
      (** thresholds admit fewer than k strategies; the closest repair *)
  | Workforce_limited  (** parameters fine; not enough remaining workforce *)
  | No_alternative  (** catalog smaller than the cardinality constraint *)
  | Duplicate  (** a request with this id is already active *)

val create :
  ?config:Aggregator.config ->
  ?metrics:Stratrec_obs.Registry.t ->
  ?trace:Stratrec_obs.Trace.t ->
  strategies:Stratrec_model.Strategy.t array ->
  workforce:float ->
  unit ->
  t
(** Fresh session over a fixed catalog. The catalog is used as-is (callers
    wanting availability re-estimation should instantiate strategies
    first — {!Aggregator.config.reestimate_parameters} is a batch-time
    concern and is ignored here, as is the batch objective).
    @raise Invalid_argument on negative workforce.

    [config] (default {!Aggregator.default_config}: Max-case aggregation,
    direction-aware inversion) is the unified aggregator configuration
    shared with {!Aggregator} and {!Engine}; its [aggregation] and
    [inversion_rule] fields apply.

    [metrics] (default {!Stratrec_obs.Registry.noop}) is retained for the
    session's lifetime and records [stream.submitted_total],
    [stream.admitted_total], [stream.rejected_total],
    [stream.workforce_limited_total], [stream.duplicate_total],
    [stream.revoked_total], [stream.replenished_total], the
    [stream.pool_workforce] gauge, the [stream.submit_seconds] span and
    [adpar.fallback_total].

    [trace] (default {!Stratrec_obs.Trace.noop}) is likewise retained:
    every {!submit} opens a [request] span (attributes: request id,
    label, outcome; triaged submissions contain the {!Adpar.exact} phase
    spans) and records one {!Stratrec_obs.Trace.decision} — [Satisfied]
    on admission, [Triaged] with ADPaR's alternative, or [Rejected] with
    the binding constraint. *)

val submit : t -> Stratrec_model.Deployment.t -> decision
(** Greedy-online admission of one request; admitted requests reserve
    their workforce until revoked. *)

val revoke : t -> int -> bool
(** [revoke t id] releases the workforce of the active request with this
    id; false when no such active request exists (repeat revocations are
    idempotent). *)

val replenish : t -> float -> unit
(** Adds workforce to the pool (e.g. new workers arriving). @raise
    Invalid_argument on negative amounts. *)

val available : t -> float
(** Currently uncommitted workforce. *)

val committed : t -> float
(** Workforce reserved by active requests. *)

val active : t -> (Stratrec_model.Deployment.t * Stratrec_model.Strategy.t list * float) list
(** Active (admitted, unrevoked) requests in admission order. *)

val admitted_count : t -> int
val rejected_count : t -> int
