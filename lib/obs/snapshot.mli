(** Immutable, deterministic view of a registry.

    A snapshot is the full instrument state at one point in time, sorted
    by series — [(name, labels)], with the unlabeled series leading its
    family — so that two snapshots of equal registries render
    identically (tests and the CLI rely on this). Rendering reuses the
    repository's table and JSON substrates ({!Stratrec_util.Tabular},
    {!Stratrec_util.Json}). *)

type histogram = {
  buckets : (float * int) list;
      (** per-bucket (inclusive upper bound, count); the final bound is
          [infinity], catching every overflow *)
  count : int;  (** total observations *)
  sum : float;  (** sum of observed values *)
  min : float;  (** 0. when empty *)
  max : float;  (** 0. when empty *)
}

type value = Counter of int | Gauge of float | Histogram of histogram

type entry = { name : string; labels : Labels.t; value : value }
(** One series: the family [name] plus its canonical {!Labels.t}
    (empty for unlabeled series). *)

type t = entry list
(** Sorted by [(name, labels)], each series unique; the unlabeled series
    of a family sorts before its labeled siblings. *)

val empty : t

val compare_series : string * Labels.t -> string * Labels.t -> int
(** The snapshot ordering: by name, then canonical labels. *)

val series_name : entry -> string
(** [Labels.encode_series name labels] — the unique series key. *)

val find : ?labels:Labels.t -> t -> string -> value option
(** [labels] defaults to the unlabeled series. *)

val counter_value : ?labels:Labels.t -> t -> string -> int
(** 0 when absent or not a counter. *)

val gauge_value : ?labels:Labels.t -> t -> string -> float
(** 0. when absent or not a gauge. *)

val histogram_count : ?labels:Labels.t -> t -> string -> int
(** 0 when absent or not a histogram. *)

val histogram_sum : ?labels:Labels.t -> t -> string -> float
(** 0. when absent or not a histogram. *)

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-quantile ([q] clamped to
    [\[0, 1\]]) from the bucketed counts: linear interpolation inside the
    bucket holding the [q]-th observation, with the recorded min/max as
    the edges of the first and overflow buckets. Always inside
    [\[h.min, h.max\]]; [0.] on an empty histogram. This is the bench
    harness's latency-percentile estimator. *)

val to_table : t -> Stratrec_util.Tabular.t
(** Columns [metric | type | value | detail]: counters and gauges carry
    their value, histograms their observation count with sum/min/max in
    the detail column. The metric column shows the encoded series
    ([name{k="v"}] for labeled series). *)

val add_openmetrics : Buffer.t -> t -> unit
(** {!to_openmetrics}, appended to a buffer. *)

val to_openmetrics : t -> string
(** Prometheus/OpenMetrics text exposition in snapshot (series) order,
    terminated by [# EOF]. Exactly one [# HELP] (carrying the original
    dotted name, escaped) and [# TYPE] block is emitted per family —
    labeled siblings are consecutive by construction and share the
    block. Labeled series render as [name{tenant="acme"} v] with full
    label-value escaping (backslash, quote, newline). Metric names are
    sanitized to [\[a-zA-Z0-9_:\]] (dots become underscores; two dotted
    names that collide after sanitization are both emitted). Histogram
    buckets are rendered cumulatively with the mandatory [le="+Inf"]
    bucket — series labels precede [le] — plus [_sum] and [_count]
    series; finite numbers use the same shortest round-trip rendering as
    {!to_json}. *)

val to_json : t -> Stratrec_util.Json.t
(** An object keyed by encoded series name ({!Labels.encode_series}).
    Histogram bucket bounds are emitted as strings (["0.1"], ["+inf"])
    because JSON numbers cannot represent infinity; finite bounds use
    the shortest round-tripping rendering, so a reader recovers them
    exactly. *)

val pp : Format.formatter -> t -> unit
(** The rendered table. *)
