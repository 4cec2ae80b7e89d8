(** Metrics registry — counters, gauges and histograms by name.

    One registry instance is threaded through a pipeline run (every
    instrumented entry point takes [?metrics] defaulting to {!noop});
    instruments are created on first use and accumulate in memory.

    Naming scheme: [<subsystem>.<metric>[_total]] with dot-separated
    subsystem prefixes ([aggregator.], [batchstrat.], [adpar.],
    [platform.], [campaign.], [engine.], [resilience.], [faults.]) and
    a [_total] suffix on monotone counters — see DESIGN.md
    §Observability.

    Instruments are looked up by series — [(name, labels)], with
    [?labels] defaulting to the unlabeled series. Every label
    combination of one name forms a {e family} and must carry a single
    instrument kind (the exposition emits one [# TYPE] per family);
    asking for an existing family with a different kind raises
    [Invalid_argument]. Asking for an existing histogram series with a
    different bucket layout keeps the original layout, but counts the
    conflict in the [obs.bucket_layout_conflicts_total] self-metric
    instead of staying silent. The registry is not thread-safe: only the
    domain that owns it records into it, and work sharded across domains
    returns values for that domain to record.

    Handles keep their cell. A counter or gauge handle looks its series
    up on its first update and holds on to it, so every later update is
    a branch and a write, with no table lookup; creating a handle alone
    adds no series. A histogram handle holds its series from
    registration. No series is ever removed, so a kept cell stays the
    one {!snapshot} reads.

    A by-name lookup resolves once per registry: the registry keeps the
    handle of each family's unlabeled series, so {!counter}, {!gauge}
    or {!histogram} of an unlabeled name after the first call returns
    that handle from one hash probe, allocating nothing, and callers
    need not keep handles themselves. A kind clash raises and a
    conflicting bucket layout is counted on every lookup, kept handle
    or not. A labeled lookup normalises its labels and returns a fresh
    handle each time. Updates through a registered instrument
    ({!incr}, {!incr_by}, {!set}, {!add}, {!observe}) allocate nothing
    beyond the float they are handed. The disabled registry keeps no
    table, so it checks no kind. *)

type t

type counter
type gauge
type histogram

val create : ?clock:(unit -> float) -> unit -> t
(** Fresh registry. [clock] (used by {!Span} timers) defaults to
    [Sys.time].

    Clock semantics: [Sys.time] is {e process CPU time} — monotone
    non-decreasing and cheap, but it only advances while this process
    burns CPU, so it under-reports wall latency whenever the work spreads
    across domains (each second of 4-domain compute advances it by up to
    four seconds of CPU) or blocks. Pass {!wall_clock} for {e wall}
    semantics: what a caller actually waited. Span histograms record
    whichever clock the registry carries; {!Profile} always measures wall
    time (and says so in its metric names) precisely because the default
    span clock does not. Work computed on other domains for the owner
    may read the clock too ({!now}), so an injected clock must be safe
    to call from any domain. *)

val wall_clock : unit -> float
(** Monotonic wall clock: [Unix.gettimeofday] guarded by a process-wide
    high-water mark, so it never steps backwards (an NTP step back
    temporarily freezes it instead). Suitable as the [clock] argument of
    {!create} and the clock {!Profile} and [Stratrec_par.Pool]'s
    utilization probes read. *)

val noop : t
(** The disabled registry: instrument operations do nothing, snapshots
    are empty. The default for every [?metrics] argument, so
    un-instrumented callers pay one branch per operation. It is
    process-global and keeps no mutable state, so any domain may use
    it. *)

val disabled : ?clock:(unit -> float) -> unit -> t
(** A fresh disabled registry carrying an (otherwise unused) clock — for
    tests asserting that the noop path never reads the clock. *)

val enabled : t -> bool
(** [false] only for {!noop}. *)

val now : t -> float
(** The registry's clock reading (0. on {!noop}). *)

(** {1 Bucket layouts} *)

val duration_buckets : float array
(** Log-spaced seconds: 1us .. 10s. The default histogram layout. *)

val fraction_buckets : float array
(** Deciles of [\[0, 1\]] — for availabilities, utilizations, errors on
    normalized axes. *)

(** {1 Instruments} *)

val counter : ?labels:(string * string) list -> t -> string -> counter
val gauge : ?labels:(string * string) list -> t -> string -> gauge
(** [labels] (default none) selects the series within the family; pairs
    are normalized via {!Labels.normalize} (which validates keys and
    raises on duplicates or the reserved ["le"]). *)

val histogram :
  ?buckets:float array -> ?labels:(string * string) list -> t -> string -> histogram
(** [buckets] is the array of inclusive upper bounds, sorted ascending
    (an implicit [+inf] bucket is appended); defaults to
    {!duration_buckets}. Registration is eager: the histogram appears in
    snapshots (at zero observations) from this call on. Re-registering an
    existing series with a different layout keeps the original layout
    and increments [obs.bucket_layout_conflicts_total].
    @raise Invalid_argument if [buckets] is empty or unsorted. *)

val incr : counter -> unit
val incr_by : counter -> int -> unit
(** @raise Invalid_argument on negative increments (counters are
    monotone). A zero increment registers the counter (so it appears in
    snapshots at 0). *)

val set : gauge -> float -> unit
val add : gauge -> float -> unit

val observe : histogram -> float -> unit

val bucket_index : float array -> float -> int
(** [bucket_index bounds v] is the index of the first bound [>= v] in
    the ascending [bounds], or [Array.length bounds] (the [+inf]
    bucket): the bucket {!observe} counts [v] in. *)

(** {1 Snapshot} *)

val snapshot : t -> Snapshot.t
(** Deterministic (series-sorted) copy of the current state. *)
