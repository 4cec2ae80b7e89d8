(** The [stratrec-serve] wire protocol: newline-delimited JSON.

    One line in, one (or more) lines out. Commands are JSON objects
    dispatched on their ["op"] field; a {!Request} rides flat next to
    the ["op"] key (its codec ignores unknown fields). The non-JSON
    spelling is [GET <path>] (leading slash optional): [GET metrics]
    answers with the OpenMetrics text exposition of the live registry —
    terminated by its [# EOF] line — so a Prometheus-style scraper can
    talk to the same socket, [GET health] with the readiness rubric and
    [GET slo] with the SLO burn report (both single-line JSON). Unknown
    GET paths get a typed [unknown-endpoint] response echoing the
    path.

    Every malformed, oversized or unknown line yields a typed
    {!Error_} response; the daemon never closes a connection on bad
    input and never crashes on it (the chaos tests flood this parser).

    Responses are single-line JSON objects with a stable shape:
    [ok : bool], [status : string], then status-specific fields.

    Strings on the wire may use any JSON escape. A UTF-16 surrogate
    pair ([\uD83D\uDE00]) decodes to the one character it spells, as
    four UTF-8 bytes, so a tenant sent escaped and the same tenant sent
    as raw UTF-8 are one tenant and are echoed as the same bytes; a
    lone surrogate is malformed JSON. *)

type command =
  | Submit of Stratrec.Request.t
      (** [{"op":"submit","id":3,"params":"0.9,0.2,0.3","k":2,
          "tenant":"acme","deadline_hours":24}] *)
  | Flush  (** [{"op":"flush"}] — close the epoch now, whatever the fill *)
  | Drain
      (** [{"op":"drain"}] — stop admitting, flush every in-flight and
          queued request within the daemon's drain budget, force-expire
          the stragglers, answer with a {!Drained} summary *)
  | Metrics  (** [GET metrics] or [{"op":"metrics"}] *)
  | Health of string option
      (** [GET health[?tenant=t]] or [{"op":"health","tenant":"t"}] —
          the readiness rubric (ready / degraded / unhealthy with
          binding reasons), optionally scoped to one tenant *)
  | Slo of string option
      (** [GET slo[?tenant=t]] or [{"op":"slo","tenant":"t"}] — per-SLO
          burn-rate status, optionally filtered to one tenant's
          trackers *)
  | Dump
      (** [{"op":"dump"}] — write the flight-recorder ring to the
          configured directory now *)
  | Ping  (** [{"op":"ping"}] — liveness probe *)
  | Tick of float
      (** [{"op":"tick","hours":H}] — advance the daemon's simulated
          clock by [H] hours (deadline testing; [H > 0]) *)
  | Shutdown  (** [{"op":"shutdown"}] — drain, respond, stop *)
  | Unknown_get of string
      (** a well-formed [GET <path>] naming no known endpoint; parses
          successfully (the path is echoed back in a typed
          {!Unknown_endpoint} response rather than a parse error) *)

val default_max_line : int
(** 65536 bytes. Longer lines are rejected before parsing. *)

val parse : ?max_line:int -> string -> (command, string) result
(** Parse one line (no trailing newline). Errors are human-readable and
    name the offending field; they never raise. *)

(** One outcome per submitted request, mirroring
    {!Stratrec.Aggregator.request_outcome}. *)
type outcome =
  | Satisfied of { strategies : string list; workforce : float }
  | Alternative of { params : Stratrec_model.Params.t; distance : float }
  | Workforce_limited
  | No_alternative

(** Per-request stage-latency breakdown, carried on every {!Completed}
    response when the daemon measures stages (admitted → epoch-closed →
    triaged → deploy-finished). Seconds on the daemon's clock axis. *)
type lineage = {
  queue_seconds : float;  (** admission-queue wait (admitted → epoch close) *)
  triage_seconds : float;  (** recommend + ADPaR triage of the epoch *)
  deploy_seconds : float;  (** resilience-ladder deploy stage of the epoch *)
  total_seconds : float;  (** end-to-end: queue + triage + deploy *)
}

type health_state =
  | Ready  (** serving normally *)
  | Degraded
      (** serving, but a pressure signal is up: circuit breaker not
          closed, admission queue near saturation, or an SLO burning *)
  | Unhealthy  (** stopped, or saturated with the breaker open *)

val health_state_label : health_state -> string
(** ["ready"], ["degraded"], ["unhealthy"]. *)

(** One SLO's live burn status, as carried by {!Slo_report}. *)
type slo_status = {
  slo : string;
  slo_tenant : string option;
      (** the spec's tenant scope (rendered as a ["tenant"] field when
          present) *)
  burning : bool;
  fast_burn_rate : float;
  slow_burn_rate : float;
  budget_remaining : float;
}

type response =
  | Accepted of { id : int; tenant : string; queue_depth : int }
      (** submit admitted; the result follows at epoch close *)
  | Queue_full of { id : int; tenant : string; queue_depth : int }
      (** typed backpressure — resubmit later *)
  | Quota_exceeded of { id : int; tenant : string; queued : int; limit : int }
      (** the tenant is at its own [max_queued] cap while the shared
          queue still has room — per-tenant backpressure *)
  | Overloaded of { id : int; tenant : string; rung : int; reason : string }
      (** shed by the brownout ladder at [rung]; [reason] is
          ["low-priority"] (weight below 1 under full brownout) or
          ["over-share"] (tenant already holds its fair share of the
          shrunken epoch) *)
  | Draining of { id : int; tenant : string }
      (** submit refused because the daemon is mid-drain *)
  | Drain_expired of { id : int; tenant : string; waited_seconds : float }
      (** queued request force-closed because the drain budget ran out *)
  | Drained of { answered : int; expired : int; forced : int; epochs : int }
      (** drain summary: every request was answered, deadline-expired,
          or force-closed — none leaked *)
  | Deadline_expired of { id : int; tenant : string; waited_seconds : float }
  | Duplicate_id of { id : int; tenant : string }
      (** another request with the same id is already in this epoch *)
  | Completed of {
      id : int;
      tenant : string;
      epoch : int;
      outcome : outcome;
      deployed : string option;
          (** deploy-stage verdict when a deploy stage is configured:
              ["completed"] or the rejection reason *)
      lineage : lineage option;
          (** stage-latency breakdown (rendered as a nested ["lineage"]
              object); [None] suppresses the field *)
    }
  | Epoch_closed of { epoch : int; admitted : int; expired : int }
      (** sent to the flushing/submitting client after an epoch runs *)
  | Health_status of {
      state : health_state;
      scope : string option;
          (** the tenant filter this verdict was computed under
              ([GET health?tenant=]); [None] for daemon-global health —
              the field is then suppressed in the JSON *)
      reasons : string list;
          (** binding reasons for a non-ready state, e.g.
              ["breaker-open"], ["queue-saturated"], ["slo-burning:api"],
              ["slo-burning:acme"], ["quota-saturated:acme"] *)
      breaker : string option;
          (** live circuit-breaker state label; [None] without a breaker *)
      queue_depth : int;
      queue_capacity : int;
      slo_burning : int;  (** SLOs currently firing *)
      epochs : int;
      brownout_rung : int;  (** current load-shedding rung (0 = steady) *)
      draining : bool;
      io_errors : int;  (** transport faults absorbed since start *)
      cache_hit_ratio : float option;
          (** triage-cache hit ratio; [None] when the engine session runs
              uncached (the field is then suppressed in the JSON) *)
    }
  | Slo_report of slo_status list  (** one entry per configured SLO *)
  | Dumped of { path : string; records : int }
      (** flight-recorder dump written: where, and how many ring records
          it carries *)
  | Unknown_endpoint of { path : string }
      (** typed answer to {!Unknown_get}, path echoed *)
  | Pong
  | Ticked of { clock_hours : float }
  | Shutting_down
  | Error_ of { reason : string }  (** protocol-level typed error *)
  | Metrics_text of string
      (** multi-line OpenMetrics exposition, [# EOF]-terminated *)

val render_into : Buffer.t -> response -> unit
(** Append the exact bytes to write, newline-terminated (the OpenMetrics
    blob already ends in one). Fields are written straight into the
    buffer, strings and floats through {!Stratrec_util.Json.add_string}
    and {!Stratrec_util.Json.add_number}, ints with [string_of_int]: no
    JSON tree is built. The server renders into each connection's
    output queue with it. @raise Invalid_argument on a non-finite float
    field, as {!render} does. *)

val render : response -> string
(** {!render_into} a fresh buffer: the bytes as a string (a
    {!Metrics_text} blob is returned as it is). *)

val outcome_of_aggregator : Stratrec.Aggregator.request_outcome -> outcome
