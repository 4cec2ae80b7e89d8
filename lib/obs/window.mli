(** Fixed-size ring-buffer sliding windows — the {e live} counterpart of
    the cumulative {!Registry} instruments.

    A window covers the last [window_seconds] of observations, bucketed
    into a fixed ring of [slots] sub-intervals: observing rotates the
    ring lazily (stale slots are reset on first touch, so an idle window
    costs nothing), and every read aggregates only the slots still
    inside the span. The effective span therefore breathes between
    [(slots - 1)/slots * window_seconds] and [window_seconds] depending
    on how far the current slot has filled — the standard ring-buffer
    trade, bounded and documented rather than hidden.

    Values are bucketed per-slot into the same kind of fixed histogram
    layout the registry uses, so {!quantile} is the same deterministic
    bucket-interpolation estimator as {!Snapshot.histogram_quantile} —
    streaming p50/p90/p99 without keeping samples.

    Time comes from an injectable clock (default {!Registry.wall_clock});
    the serving daemon passes its simulated-tick-aware clock so window
    rotation is deterministically testable.

    Exposition composes with the existing {!Registry}/{!Snapshot} path:
    {!export} publishes the window as a [<name>.window.*] gauge family
    (count, rate, quantiles) in a registry, so
    {!Snapshot.to_openmetrics} renders it with no schema change —
    nothing here touches counters, spans or decisions, keeping the
    [--domains N] bit-identity contract intact.

    Not thread-safe: one window per owning loop, like the registry. *)

type t

val create :
  ?clock:(unit -> float) ->
  ?metrics:Registry.t ->
  ?slots:int ->
  ?bounds:float array ->
  window_seconds:float ->
  unit ->
  t
(** [slots] (default 12) is the ring size; [bounds] (default
    {!Registry.duration_buckets}) the per-slot histogram layout used by
    {!quantile} — inclusive ascending upper bounds, implicit [+inf]
    overflow. [metrics] (default {!Registry.noop}) receives the
    [obs.window.clock_regressions_total] counter when the injected clock
    steps backwards across a slot boundary (see {!observe}).
    @raise Invalid_argument if [window_seconds <= 0],
    [slots < 1], or [bounds] is empty/unsorted/non-finite. *)

val window_seconds : t -> float
val slots : t -> int

val observe : t -> float -> unit
(** Record one value at the current clock reading. Monotone clocks
    rotate the ring lazily; when the clock {e regresses} across a slot
    boundary (an injected clock stepped backwards), the observation
    lands in the live slot it maps to {e without} resetting it — wiping
    live data over a clock regression silently discarded window history —
    and the regression is counted ([{!clock_regressions}] and the
    [obs.window.clock_regressions_total] counter of the [metrics]
    registry), mirroring the [trace.clock_regressions_total] convention
    of [Span.finish]. *)

val mark : t -> unit
(** [observe t 0.] — for pure event-rate windows where the value axis is
    unused. *)

(** {1 Reads}

    Every read rotates first, so a window that stopped receiving
    observations decays to empty as the clock advances. *)

val count : t -> int
(** Observations inside the window. *)

val sum : t -> float

val rate_per_sec : t -> float
(** [count /. live_span] — the recent-window event rate, where
    [live_span] is the time since the first observation clamped into
    [\[window_seconds / slots, window_seconds\]]. Dividing by the full
    window before it had been alive that long under-reported early
    rates (skewing SLO burn and brownout p99 inputs at daemon startup);
    once the window has run a full span the denominator is
    [window_seconds] exactly as before. *)

val clock_regressions : t -> int
(** Observations that arrived on a backwards-stepped clock (see
    {!observe}); 0 on a monotone clock. *)

val mean : t -> float
(** [0.] when empty. *)

val min_value : t -> float
(** Smallest live observation; [0.] when empty. *)

val max_value : t -> float
(** Largest live observation; [0.] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the [q]-quantile (clamped to [\[0, 1\]]) of
    the live observations via {!Snapshot.histogram_quantile} over the
    aggregated slot histograms — always within
    [\[min_value, max_value\]]; [0.] when empty. *)

val reset : t -> unit
(** Empty every slot and restart the live-span origin (the next
    observation becomes the window's first). *)

val export :
  ?labels:(string * string) list -> ?rate_only:bool -> t -> Registry.t -> name:string -> unit
(** Publish the window as gauges in [registry]:
    [<name>.window.count], [<name>.window.rate_per_sec],
    [<name>.window.mean], [<name>.window.max],
    [<name>.window.p50], [<name>.window.p90], [<name>.window.p99].
    [labels] (default none) stamps every gauge — the daemon's per-tenant
    windows export under the shared family names with a
    [tenant="..."] label. [rate_only] (default false) publishes only
    [count] and [rate_per_sec] — for {!mark}-fed event windows whose
    value axis is unused (a mean/p99 of zeros under a seconds-style
    shape misleads scrapers). Gauges only, so no counter moves. No-op
    on a disabled registry. *)
