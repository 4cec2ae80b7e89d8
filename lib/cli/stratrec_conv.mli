(** Cmdliner converters for every CLI-parseable StratRec type, and the
    flags both binaries share.

    Each type the CLI parses exposes the same codec pair —
    [to_string : t -> string] and
    [of_string : string -> (t, string) result] — and this module turns
    that pair into a {!Cmdliner.Arg.conv} through one functor, so the
    binaries ([stratrec], [stratrec-serve]) share a single piece of
    parser plumbing instead of hand-rolling [parse]/[print] closures per
    flag. Ready-made converters for the standard types are exported
    below; {!Make} covers any future codec-carrying type. *)

(** The standard codec surface: [of_string] is total (typed error, never
    raises) and [to_string] round-trips through it. *)
module type STRINGABLE = sig
  type t

  val to_string : t -> string
  val of_string : string -> (t, string) result
end

module Make (S : STRINGABLE) : sig
  val conv : S.t Cmdliner.Arg.conv
  (** Parses with [S.of_string] (the codec's error becomes the
      [`Msg] Cmdliner renders) and prints with [S.to_string] (so
      defaults in [--help] show the parseable spelling). *)
end

(** {1 Ready-made converters} *)

val params : Stratrec_model.Params.t Cmdliner.Arg.conv
(** The [QUALITY,COST,LATENCY] triple ({!Stratrec_model.Params}). *)

val objective : Stratrec.Objective.t Cmdliner.Arg.conv
(** [throughput] / [payoff] ({!Stratrec.Objective}). *)

val window : Stratrec_crowdsim.Window.t Cmdliner.Arg.conv
(** [weekend] / [early-week] / [late-week] ({!Stratrec_crowdsim.Window}). *)

val fault : Stratrec_resilience.Fault.t Cmdliner.Arg.conv
(** Fault-plan spellings like [no-show=0.3,outage=weekend]
    ({!Stratrec_resilience.Fault}). *)

val dist_kind : Stratrec_model.Workload.dist_kind Cmdliner.Arg.conv
(** [uniform] / [normal] ({!Stratrec_model.Workload}). *)

val workforce : float Cmdliner.Arg.conv
(** The available-workforce fraction [W]: a number in [0,1] (nan is
    rejected), the value {!Stratrec_model.Availability.certain} accepts. *)

val count : min:int -> int Cmdliner.Arg.conv
(** An integer of at least [min]: a catalog or batch size or a retry
    budget ([~min:0]), a cardinality [k], a platform population or a
    stage count ([~min:1]). Checking at parse time turns what would be an
    [Invalid_argument] deep in the run, or a silently clamped value, into
    a CLI error naming the flag. *)

val request : Stratrec.Request.t Cmdliner.Arg.conv
(** The compact request spelling
    [id=3;tenant=acme;params=0.9,0.2,0.3;k=5;deadline=24]
    ({!Stratrec.Request}). *)

val slo : Stratrec_obs.Slo.spec Cmdliner.Arg.conv
(** The SLO spec spelling [name=api;latency=0.25;target=0.95] (success
    objective when [latency=] is omitted; optional [fast=], [slow=],
    [fast-burn=], [slow-burn=]) ({!Stratrec_obs.Slo}). *)

val quota : (string * Stratrec_serve.Admission.quota) Cmdliner.Arg.conv
(** The per-tenant quota spelling
    [tenant=acme;weight=2;max-queued=16;max-in-flight=4] (only
    [tenant=] required) ({!Stratrec_serve.Admission}). *)

val cache : Stratrec.Triage_cache.config option Cmdliner.Arg.conv
(** The triage-cache policy spelling: [off] (disabled), [on] (the
    default capacity) or a positive capacity like [1024]
    ({!Stratrec.Triage_cache.policy_of_string}). *)

(** {1 Flags and helpers both binaries share}

    Defined once, so [stratrec] and [stratrec-serve] spell, default and
    document them alike. *)

val strategies_arg : int Cmdliner.Term.t
(** [-n]/[--strategies N]: the synthetic catalog's size (default 200). *)

val objective_arg : Stratrec.Objective.t Cmdliner.Term.t
(** [--objective GOAL] (default throughput). *)

val population_arg : int Cmdliner.Term.t
(** [--population P]: the deploy stage's platform population (default
    200). *)

val capacity_arg : int Cmdliner.Term.t
(** [--capacity C]: workers per deployed HIT (default 5). *)

val window_arg : Stratrec_crowdsim.Window.t Cmdliner.Term.t
(** [--window WINDOW]: the deployment window (default weekend). *)

val engine_msg : Stratrec.Engine.error -> [> `Msg of string ]
(** An engine error as the message Cmdliner renders. *)

val catalog_or_generate :
  rng:Stratrec_util.Rng.t ->
  n:int ->
  dist:Stratrec_model.Workload.dist_kind ->
  string option ->
  (Stratrec_model.Strategy.t array, [> `Msg of string ]) result
(** The catalog at the given path, or [n] strategies drawn from [rng]. *)

val deploy_config :
  rng:Stratrec_util.Rng.t ->
  deploy:bool ->
  faults:Stratrec_resilience.Fault.t ->
  retries:int ->
  population:int ->
  capacity:int ->
  window:Stratrec_crowdsim.Window.t ->
  Stratrec.Engine.deploy_config option
(** The deploy stage the flags ask for: none unless [deploy] is set, a
    fault plan is given or [retries] is positive, since there is nothing
    to fault or retry without one. The platform is drawn from [rng], so
    call this after the workload has taken its draws. *)
