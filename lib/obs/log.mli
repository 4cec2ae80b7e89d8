(** Leveled JSON-lines structured logging.

    Where {!Registry} aggregates and {!Trace} reconstructs, the log
    narrates: one self-describing JSON object per line, machine-parseable
    (`jq`-able) and cheap to ship. Records carry a monotonic timestamp,
    the level, the message, the id of the innermost open span of the
    correlated {!Trace} (so a log line can be joined back to the span
    tree it was emitted under) and any caller-supplied fields.

    Rendering is deterministic: keys appear in the fixed order [ts],
    [level], [span] (omitted when there is no open span), [msg], then the
    caller's fields in the order given. Values render through
    {!Stratrec_util.Json}, so strings are escaped correctly and floats
    use the shortest round-trip form.

    Like every obs substrate, the disabled {!noop} logger costs one
    branch per call site and allocates nothing. *)

type level = Debug | Info | Warn | Error

val level_label : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type t

val create :
  ?level:level -> ?clock:(unit -> float) -> writer:(string -> unit) -> unit -> t
(** A logger handing every rendered line (without trailing newline) to
    [writer]. [level] (default [Info]) is the threshold: records below it
    are dropped before rendering. [clock] (default
    {!Registry.wall_clock}) stamps the [ts] field — wall semantics, like
    {!Profile}, because log timestamps are for correlating with the
    outside world. *)

val noop : t
(** The disabled logger every [?log] argument defaults to. *)

val log :
  ?trace:Trace.t ->
  ?fields:(string * Stratrec_util.Json.t) list ->
  t ->
  level ->
  string ->
  unit
(** Emit one record. [trace] (default {!Trace.noop}) supplies the span
    correlation: when it has an open span, the record carries its id as
    [span]. [fields] append after [msg]; field names colliding with the
    reserved keys ([ts], [level], [span], [msg]) are emitted anyway —
    consumers see both. *)

val debug :
  ?trace:Trace.t -> ?fields:(string * Stratrec_util.Json.t) list -> t -> string -> unit

val info :
  ?trace:Trace.t -> ?fields:(string * Stratrec_util.Json.t) list -> t -> string -> unit

val warn :
  ?trace:Trace.t -> ?fields:(string * Stratrec_util.Json.t) list -> t -> string -> unit

val error :
  ?trace:Trace.t -> ?fields:(string * Stratrec_util.Json.t) list -> t -> string -> unit
