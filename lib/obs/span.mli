(** Monotonic span timers.

    A span measures one stage of the pipeline against the registry's
    clock (process time by default, so durations never go negative even
    if the wall clock steps). Finishing a span records the elapsed
    seconds into a histogram named after the span (with
    {!Registry.duration_buckets}).

    On a disabled registry spans cost two branches and record nothing —
    no allocation and no clock read. *)

type t

val start : Registry.t -> string -> t
(** Begin timing a stage; [string] is the histogram/metric name, e.g.
    ["aggregator.batch_seconds"]. On a disabled registry this returns a
    shared dummy span without reading the clock. *)

val finish : t -> float
(** Elapsed seconds (clamped to [>= 0.]), after recording it. A clock
    regression (negative elapsed time, possible only with an injected
    non-monotone clock) still records 0. but additionally increments the
    [trace.clock_regressions_total] counter rather than passing
    silently. Finishing the same span twice records twice. *)

val observe : Registry.t -> string -> float -> unit
(** [observe reg name elapsed] records a duration measured elsewhere on
    [reg]'s clock exactly as {!finish} records its own: clamped to
    [>= 0.], with a negative [elapsed] counted in
    [trace.clock_regressions_total]. Does nothing on a disabled
    registry. *)

val time : Registry.t -> string -> (unit -> 'a) -> 'a
(** [time reg name f] runs [f ()] inside a span, finishing it whether
    [f] returns or raises. *)
