(** Profiling hooks: wall time and allocation/GC cost of a stage.

    {!Span} answers "how long did the stage hold the CPU" (the default
    registry clock is process time); [Profile] answers the two questions
    that clock cannot: how long a caller {e waited} (wall seconds, on
    {!Registry.wall_clock}) and what the stage cost the runtime
    (minor/major words allocated, promotions, major collections, from
    [Gc.minor_words] and [Gc.quick_stat] deltas — the former because
    OCaml 5's [quick_stat] allocation counters only flush at
    minor-collection boundaries). Everything is recorded as histograms under
    the wrapped stage's name:

    - [<name>.wall_seconds] — {!Registry.duration_buckets}
    - [<name>.gc.minor_words], [<name>.gc.major_words],
      [<name>.gc.promoted_words] — log-spaced words, 1e3 .. 1e10
    - [<name>.gc.major_collections] — 1, 2, 5, 10, 20, 50, 100, 1000

    Profiling stays off the determinism path by construction: it touches
    no counters, spans or decision records, only histograms (whose
    {e observation counts} are deterministic — one per wrapped call —
    even though the observed values are not), so enabling it leaves the
    report, counters, span tree and decision log of a run bit-identical,
    sharded or not. On a disabled registry {!time} reduces to calling the
    wrapped function: no clock read, no [Gc.quick_stat]. *)

val time : ?clock:(unit -> float) -> Registry.t -> string -> (unit -> 'a) -> 'a
(** [time registry name f] runs [f ()] and records the wall/GC
    histograms above into [registry], whether [f] returns or raises.
    [clock] (default {!Registry.wall_clock}) is injectable for tests.
    Composes with {!Span.time}: wrap the same stage in both to get CPU
    seconds (span) and wall seconds (profile) side by side. *)
