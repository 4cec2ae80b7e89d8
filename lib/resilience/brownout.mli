(** The adaptive load-shedding ladder a serving daemon walks under
    overload (DESIGN.md §5i) — the serving-side sibling of {!Degrade}.

    {!Degrade} descends through deploy alternatives when a {e single
    request's} attempts fail; [Brownout] descends through {e service
    levels} when the whole daemon is oversubscribed. The module is a
    pure hysteresis state machine over two pressure signals — admission
    queue saturation (depth / capacity) and a recent-window p99 latency
    — and knows nothing about what each rung disables; the daemon maps
    rung numbers to effects (warn, shrink epochs, shed tenants) and
    walks back down as pressure clears.

    Each {!evaluate} moves at most one rung, and the recovery
    thresholds sit strictly below the escalation ones, so a boundary
    signal cannot oscillate the ladder. *)

type config = {
  saturation_high : float;
      (** escalate when queue saturation reaches this, in [(0, 1]] *)
  saturation_low : float;
      (** recover when saturation is back at or below this, in
          [[0, saturation_high)] *)
  p99_high : float;
      (** escalate when the window p99 (seconds) reaches this;
          [0.] disables the latency signal *)
  p99_low : float;
      (** recover only when the p99 is back at or below this, in
          [[0, p99_high)] (ignored when the signal is disabled) *)
}

val default : config
(** Saturation 0.85 / 0.5, latency signal disabled — the daemon's stock
    ladder: a fresh unloaded daemon stays at rung 0. *)

val validate : config -> (unit, string) result
(** Field-range check; the error names the offending field. *)

type t

val create : config -> (t, string) result
(** A ladder at rung 0. Validates the config first. *)

val rung : t -> int
(** Current rung, from [0] (normal service) to [3], the top rung: the
    daemon gives rungs 1 to 3 their effects. *)

type transition =
  | Steady  (** no movement *)
  | Escalated of { from_ : int; to_ : int; reason : string }
      (** one rung up; [reason] is ["queue-saturation"] or
          ["window-p99"] — the signal that bound *)
  | Recovered of { from_ : int; to_ : int }  (** one rung down *)

val evaluate : t -> saturation:float -> p99:float -> transition
(** Feed the current pressure signals and move at most one rung.
    Escalates when either signal is at or above its high threshold;
    recovers only when {e every} enabled signal is at or below its low
    threshold. *)
