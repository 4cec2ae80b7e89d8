(** Declarative SLOs with error-budget accounting and multi-window
    burn-rate alerting.

    A {!spec} names one objective over a request stream: either a
    latency threshold ("95% of requests finish within 250ms") or a plain
    success ratio ("99% of requests succeed"). A tracker ({!t}) built
    from the spec classifies every recorded request as good or bad,
    keeps cumulative error-budget totals, and feeds the good/bad
    indicator into two sliding {!Window}s — a fast one (default 5min)
    and a slow one (default 1h).

    {!evaluate} computes the burn rate of each window — the window's
    error ratio divided by the budgeted ratio [1 - target], so burn 1.0
    means "spending budget exactly as fast as allowed" — and fires when
    {e both} windows exceed their thresholds, the standard SRE
    multi-window reduction: the fast window makes alerts responsive,
    the slow window keeps one bad epoch from paging. Transitions (and
    only transitions) are emitted through {!Log} as typed records:
    [warn]/[slo alert firing] and [info]/[slo alert resolved], each
    carrying the slo name and both burn rates.

    {!export} publishes the latest evaluation as the [obs.slo.<name>.*]
    gauge family, composing with {!Snapshot.to_openmetrics} like every
    other gauge.

    Clock and windows are injectable/deterministic, so burn behaviour is
    golden-testable on a fake clock. Not thread-safe, like the rest of
    the obs substrates. *)

type objective =
  | Latency of { threshold_seconds : float; target : float }
      (** Good request: succeeded {e and} carried a latency
          [<= threshold_seconds]. *)
  | Success of { target : float }  (** Good request: succeeded. *)

type spec = {
  name : string;
  objective : objective;
  fast_seconds : float;  (** fast burn window span (default 300.) *)
  slow_seconds : float;  (** slow burn window span (default 3600.) *)
  fast_burn : float;  (** firing threshold on the fast window (default 14.) *)
  slow_burn : float;  (** firing threshold on the slow window (default 6.) *)
  tenant : string option;
      (** scope: [None] tracks the whole stream; [Some t] trackers are
          fed only that tenant's requests and export with a
          [tenant="..."] label *)
}

val spec :
  ?fast_seconds:float ->
  ?slow_seconds:float ->
  ?fast_burn:float ->
  ?slow_burn:float ->
  ?tenant:string ->
  name:string ->
  objective ->
  spec
(** @raise Invalid_argument on an empty name, a target outside (0, 1),
    a non-positive latency threshold, non-positive window spans, a slow
    window not longer than the fast one, non-positive burn
    thresholds, or an empty tenant. *)

val spec_of_string : string -> (spec, string) result
(** Parses the semicolon [key=value] surface the CLI flags use:
    [name=api;latency=0.25;target=0.95] declares a latency objective,
    omitting [latency=] declares a success objective; optional keys
    [fast=], [slow=] (seconds), [fast-burn=], [slow-burn=] override the
    defaults, and [tenant=] scopes the tracker to one tenant's
    requests. Unknown or duplicate keys are typed errors. *)

val spec_to_string : spec -> string
(** Canonical full form; [spec_of_string (spec_to_string s) = Ok s]. *)

type t

val create : ?clock:(unit -> float) -> spec -> t
(** Tracker on [clock] (default {!Registry.wall_clock}). *)

val spec_of : t -> spec

val record : ?latency_seconds:float -> t -> ok:bool -> unit
(** Classify one request. Under a [Latency] objective a request is good
    only when [ok] {e and} [latency_seconds] was supplied and is within
    the threshold (an [ok] request with no latency counts as bad — the
    conservative reading). Under [Success], [latency_seconds] is
    ignored. *)

type evaluation = {
  burning : bool;
  changed : bool;  (** this evaluation crossed the firing boundary *)
  fast_burn_rate : float;
  slow_burn_rate : float;
  budget_remaining : float;
      (** cumulative error budget left, 1.0 = untouched, 0.0 = spent,
          negative = overspent; 1.0 when nothing recorded yet *)
  good_total : int;
  bad_total : int;
}

val evaluate : ?log:Log.t -> t -> evaluation
(** Read both windows at the current clock, update the firing state, and
    when it changed emit the transition through [log]. *)

val burning : t -> bool
(** The firing state as of the last {!evaluate}. *)

val export : ?log:Log.t -> t -> Registry.t -> unit
(** {!evaluate}, then publish gauges [obs.slo.<name>.fast_burn_rate],
    [.slow_burn_rate], [.budget_remaining] and [.burning] (0/1) in the
    registry — stamped with a [tenant="..."] label when the spec is
    tenant-scoped. Gauges only, so no counter moves. *)
