(** The simulated crowdsourcing platform (the AMT stand-in).

    Holds a worker population and implements the study's recruitment
    pipeline: filter on profile, qualification-test, then observe who is
    actually active in a deployment window. The observed ratio of workers
    undertaking a HIT to its capacity is the paper's availability estimate
    (§5.1.1). *)

type t

val create : Stratrec_util.Rng.t -> population:int -> t
(** Generates [population] workers deterministically from the generator. *)

val population : t -> int
val workers : t -> Worker.t array

val qualified_pool : t -> Stratrec_util.Rng.t -> Task_spec.kind -> Worker.t list
(** Workers passing both the recruitment filters and the qualification
    test. The qualification draw is randomized per call (fresh test). *)

type recruitment = {
  hired : Worker.t list;  (** active qualified workers, up to capacity *)
  capacity : int;
  availability : float;  (** |hired| / capacity, the x'/x ratio *)
}

val recruit :
  ?metrics:Stratrec_obs.Registry.t ->
  ?faults:Stratrec_resilience.Fault.t ->
  t -> Stratrec_util.Rng.t -> kind:Task_spec.kind -> window:Window.t -> capacity:int ->
  recruitment
(** Draws the active subset of the qualified pool during [window] and hires
    up to [capacity]. @raise Invalid_argument if [capacity <= 0].

    [faults] (default {!Stratrec_resilience.Fault.none}) injects platform
    failures, every decision drawn from the run generator so faulted runs
    replay bit-identically from the seed: an {e outage} covering the
    window hires nobody without touching the pool, {e flaky
    qualification} spuriously drops qualified workers from the pool, and
    {e no-show} drops hired workers after the capacity cut — all three
    depress the observed availability exactly as they would on the real
    platform. Each injected event counts [faults.injected_total] plus its
    per-kind counter ([faults.outage_total],
    [faults.flaky_qualification_total], [faults.no_show_total]).

    [metrics] (default {!Stratrec_obs.Registry.noop}) records
    [platform.recruitments_total], [platform.workers_hired_total] and the
    [platform.availability] histogram (decile buckets). *)
