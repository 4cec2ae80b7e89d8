(** Hierarchical per-run traces and per-request decision records.

    Where {!Registry} answers "how much / how often" in aggregate, a
    trace answers "what happened to {e this} run and why": a tree of
    named spans (engine run -> request -> algorithm phase) with
    per-span attributes and monotonic timestamps, plus one structured
    {e decision record} per request explaining how the broker triaged
    it. Entry points take a [?trace] argument defaulting to {!noop},
    exactly like [?metrics] — disabled traces cost one branch per
    operation and record nothing.

    Nesting is implicit: {!span} opens a child of the innermost span
    currently open on the trace (the pipeline is single-threaded per
    run, so a span stack suffices) and closes it when the wrapped
    function returns or raises. The collected tree renders two ways: a
    human-readable table ({!pp}, via {!Stratrec_util.Tabular}) and
    Chrome trace-event JSON ({!to_chrome_json}, via
    {!Stratrec_util.Json}) loadable in [chrome://tracing] or Perfetto.

    The buffer is bounded: once [capacity] spans have been retained,
    further spans still nest and time correctly but are counted in
    {!dropped} instead of stored, so tracing a long benchmark cannot
    exhaust memory. *)

type attr =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** Fresh enabled trace. [capacity] (default 4096) bounds the number of
    retained spans and decision records; [clock] defaults to [Sys.time]
    — the process clock, monotone non-decreasing like
    {!Registry.create}'s. Only retained spans and decisions read the
    clock. *)

val noop : t
(** The disabled trace every [?trace] argument defaults to: {!span}
    reduces to calling the wrapped function, everything else is a
    no-op, renderers return empty documents. *)

val enabled : t -> bool
(** [false] only for {!noop}. *)

(** {1 Spans} *)

val span : ?attrs:(string * attr) list -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()] inside a span named [name], opened as a
    child of the innermost open span (a root when none is open) and
    finished when [f] returns or raises. [attrs] seed the span's
    attribute list. *)

val add_attr : t -> string -> attr -> unit
(** Attach an attribute to the innermost open span — for values only
    known once the stage has run (a distance, a count). No-op when the
    trace is disabled or no span is open. *)

(** {1 Decision records} *)

(** How the broker resolved one request. *)
type verdict =
  | Satisfied of { workforce : float; strategies : string list }
      (** recommended as-is: aggregated workforce consumed and the k
          strategy labels *)
  | Triaged of { quality : float; cost : float; latency : float; distance : float }
      (** re-negotiated by ADPaR: the recommended alternative triple
          and its L2 distance from the original request *)
  | Rejected of { binding : string }
      (** nothing to recommend; [binding] names the binding constraint
          (workforce budget, catalog cardinality, duplicate id) *)

type decision = {
  request_id : int;
  label : string;
  at : float;  (** clock reading when the decision was recorded *)
  verdict : verdict;
}

val decide : t -> id:int -> label:string -> verdict -> unit
(** Record one request's decision. Bounded by the trace capacity like
    spans; overflow counts into {!dropped}. *)

val decisions : t -> decision list
(** Every retained decision, in decision order. *)

(** {1 Introspection} *)

(** One retained span, in depth-first pre-order (see {!nodes}). *)
type node = {
  id : int;
  parent : int option;  (** [None] for roots *)
  name : string;
  depth : int;  (** 0 for roots *)
  start_ts : float;
  duration : float;  (** seconds; 0. if the span never finished *)
  attrs : (string * attr) list;  (** in attachment order *)
}

val nodes : t -> node list
(** The span tree flattened depth-first, siblings in start order.
    Spans whose parent was dropped surface as roots. *)

val current_span_id : t -> int option
(** The id of the innermost open span, [None] when the trace is disabled
    or no span is open — what {!Log} stamps on records for
    log/trace correlation. *)

val span_count : t -> int
(** Retained spans. *)

val dropped : t -> int
(** Spans and decisions discarded after the buffer filled. *)

(** {1 Renderers} *)

val to_chrome_json : t -> Stratrec_util.Json.t
(** Chrome trace-event JSON: [{"traceEvents": [...],
    "displayTimeUnit": "ms"}] with one complete ("ph":"X") event per
    span — [args] carries [span_id], [parent_id] and the attributes, so
    the hierarchy survives tools that re-sort events — and one instant
    ("ph":"i") event per decision record. Timestamps are microseconds
    on the trace clock. *)

val pp_decision : Format.formatter -> decision -> unit
(** Deterministic one-line rendering, e.g.
    ["d1 -> triaged {q=0.400; c=0.500; l=0.280} distance 0.3300"]. *)

val pp : Format.formatter -> t -> unit
(** The rendered tree table (columns [span | ms | attrs], children
    indented under their parent) followed by the decision lines — what
    the CLI prints on [--trace] without a file. *)
