(** HIT deployment and measurement — one simulated run of the study's
    Step-2/Step-3 pipeline (§5.1.1).

    A deployment fixes a task, a strategy combo, a window, a HIT capacity
    and whether the workers follow a StratRec recommendation. Deploying
    recruits workers, simulates the collaborative editing session, and
    measures the achieved (quality, cost, latency) — the ground-truth
    linear response at the observed availability, degraded by the session's
    edit-war modifier, plus measurement noise. *)

type deployment = {
  task : Task_spec.t;
  combo : Stratrec_model.Dimension.combo;
  window : Window.t;
  capacity : int;  (** workers per HIT (10 in §5.1.1, 7 in §5.1.2) *)
  guided : bool;  (** whether the deployment follows a recommendation *)
}

type result = {
  deployment : deployment;
  availability : float;  (** observed x'/x *)
  measured : Stratrec_model.Params.t;
      (** normalized: quality as expert-judged fraction, cost as dollars
          over the full-capacity budget, latency as hours over the window *)
  session : Collaboration.session;
  workers_hired : int;
  dollars_spent : float;
}

val deploy :
  ?metrics:Stratrec_obs.Registry.t ->
  ?faults:Stratrec_resilience.Fault.t ->
  Platform.t ->
  Stratrec_util.Rng.t ->
  deployment ->
  result
(** @raise Invalid_argument if the deployment capacity is not positive. A
    deployment that attracts no workers yields quality 0, cost 0 and
    latency 1 (the window expired).

    [faults] (default {!Stratrec_resilience.Fault.none}) is threaded into
    {!Platform.recruit} (outages, flaky qualification, no-shows) and adds
    the session-level failure modes on top: {e dropout} removes hired
    workers mid-session (they go unpaid — abandoned HITs are not
    approved; a fully abandoned deployment measures like an empty one),
    and {e straggler} inflates the measured latency by the plan's factor
    (clamped to 1.0, the expired window). Each injection counts
    [faults.injected_total] plus [faults.dropout_total] /
    [faults.straggler_total]. All draws come from [rng], so faulted
    deployments replay bit-identically from the seed.

    [metrics] (default {!Stratrec_obs.Registry.noop}) records
    [campaign.hits_deployed_total], [campaign.worker_assignments_total]
    (survivors after dropouts), [campaign.empty_deployments_total], the
    accumulated [campaign.dollars_spent_total] gauge and the
    [campaign.measured_quality] histogram, and is threaded into
    {!Platform.recruit}. *)

val replicate :
  ?metrics:Stratrec_obs.Registry.t ->
  ?faults:Stratrec_resilience.Fault.t ->
  Platform.t -> Stratrec_util.Rng.t -> deployment -> times:int -> result list
(** [times] independent {!deploy}s of the same deployment, with [metrics]
    and [faults] threaded into every replicate — replicated observations
    are metered and faulted identically to single deploys.
    @raise Invalid_argument if [times <= 0]. *)

val observations : result list -> (float * Stratrec_model.Params.t) array
(** (availability, measured) pairs for {!Calibration}. *)
