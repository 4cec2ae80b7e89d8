(** The [stratrec-serve] daemon core: admission → epoch batching →
    triage → response streaming (DESIGN.md §5g), independent of any
    transport.

    The daemon owns one {!Stratrec.Engine} session (registry, breaker
    and deploy clock persist across epochs; it records spans and
    decisions only into a trace the engine config passes), one bounded
    {!Admission} queue in front of it, and a [serve.*] metrics surface
    in the session registry. {!handle_line} is the entire protocol: the
    socket server and the [--stdio] driver both feed it raw lines and
    write back the responses it routes, so every test can drive the
    daemon without a socket.

    Epochs close when the admission queue reaches the configured fill
    ([epoch_requests]), on an explicit [flush], and on [shutdown]
    (which drains everything). Within an epoch the batch goes through
    {!Stratrec.Engine.submit} with the tightest unspent admission
    deadline as the epoch's retry budget — queue deadlines wired into
    the {!Stratrec_resilience.Retry} machinery. Determinism contract:
    a fixed request batch forming one epoch yields decisions and
    counters bit-identical to the equivalent one-shot
    {!Stratrec.Engine.run}.

    Time is read from an injectable clock (seconds); the [tick]
    protocol verb advances a simulated offset on top of it, so
    deadline expiry is deterministically testable. A tick that would
    make that clock non-finite is answered with a typed error, counted
    in [serve.protocol_errors_total], and leaves the clock as it was. *)

type config = {
  engine : Stratrec.Engine.config;
      (** per-epoch pipeline configuration; the daemon installs its own
          session registry when this carries none, so [serve.*] and
          engine metrics share one scrape *)
  queue_capacity : int;  (** admission bound; full → typed backpressure *)
  epoch_requests : int;
      (** fill target that closes an epoch; a target above
          [queue_capacity] is legal and means epochs close only on
          [flush]/[shutdown] — the configuration where the queue can
          actually fill and backpressure becomes observable *)
  max_line : int;  (** protocol line limit, {!Protocol.default_max_line} *)
  window_seconds : float;
      (** span of the live sliding windows ([serve.*.window.*] gauges);
          must be positive *)
  slos : Stratrec_obs.Slo.spec list;
      (** SLOs the daemon tracks: every answered request is classified
          good/bad per spec, burn rates feed [GET health]/[GET slo] and
          the [obs.slo.*] gauges, and alert transitions go through the
          engine config's log *)
  quotas : (string * Admission.quota) list;
      (** per-tenant admission contracts ([--quota]); unlisted tenants
          get {!Admission.default_quota} *)
  brownout : Stratrec_resilience.Brownout.config;
      (** adaptive load-shedding ladder thresholds (DESIGN.md §5i):
          queue saturation and sliding-window e2e p99 walk the rung up,
          hysteresis walks it back. Rung 1 only warns (gauge, health
          reason, log), rung 2 halves the epoch fill, rung 3 sheds
          low-priority and over-share submits with typed [overloaded]
          responses *)
  drain_timeout_seconds : float;
      (** wall budget for [drain] and [shutdown]: epochs run until the
          queue empties or this elapses, stragglers are force-closed
          with typed [drain-expired] responses; [0] forces immediately *)
  tenant_windows : int;
      (** cap on distinct per-tenant window families
          ([serve.*{tenant="..."}]), lazily materialized on first sight;
          tenants beyond the cap share the ["other"] overflow slot so a
          tenant flood cannot exhaust memory; must be [>= 1] *)
  flight_dir : string option;
      (** directory for flight-recorder dumps ([flight-NNNN.jsonl]);
          [None] disables the recorder entirely *)
  flight_slots : int;
      (** flight-recorder ring size (per-epoch records kept); must be
          [>= 1] *)
}

val default_config : config
(** Engine defaults, capacity 64, epochs of 8, 64 KiB lines, 60-second
    windows, no SLOs, no quotas, default brownout ladder, 30-second
    drain budget, 8 tenant window slots, no flight recorder (16 ring
    slots when one is enabled). *)

type t

val create :
  ?clock:(unit -> float) ->
  ?rng:Stratrec_util.Rng.t ->
  config:config ->
  availability:Stratrec_model.Availability.t ->
  strategies:Stratrec_model.Strategy.t array ->
  unit ->
  (t, Stratrec.Engine.error) result
(** [clock] defaults to {!Stratrec_obs.Registry.wall_clock}; pass a
    fake for tests. [rng] seeds the deploy stage exactly as in
    {!Stratrec.Engine.create}. Validates config up front:
    [`Invalid_config] on a non-positive queue capacity, epoch fill or
    line limit, plus everything engine validation rejects. *)

val handle_line :
  t -> client:int -> string -> (int * Protocol.response) list * [ `Continue | `Stop ]
(** Process one raw protocol line from [client] (an opaque connection
    token). Returns the responses to deliver — each tagged with the
    client it belongs to, in send order; epoch results route to the
    clients that submitted each request — and whether the daemon keeps
    serving. Never raises on any input; malformed lines yield a typed
    {!Protocol.Error_} to the sender. After [`Stop] (a [shutdown]
    command), the queue has been fully drained, every pending request
    answered, and the engine session closed. *)

val queue_depth : t -> int
(** Requests currently waiting for an epoch — 0 after [`Stop] (the
    zero-leak shutdown invariant the smoke test asserts). *)

val epochs : t -> int
(** Epochs run so far. *)

val stopped : t -> bool

val max_line : t -> int
(** The configured protocol line limit (the transport's buffering
    guard reads it). *)

val drain_timeout : t -> float
(** The configured drain budget in seconds (the transport bounds its
    shutdown flush of queued output by it). *)

val metrics : t -> Stratrec_obs.Snapshot.t
(** Live cumulative snapshot (the [GET metrics] surface). Refreshes the
    sliding-window gauges and SLO evaluations first, so the snapshot's
    [*.window.*] and [obs.slo.*] series reflect the current clock. *)

val clock_hours : t -> float
(** Simulated clock offset accumulated through [tick], in hours. *)

val brownout_rung : t -> int
(** Current load-shedding rung; 0 when steady. *)

val draining : t -> bool
(** [true] once a [drain] command has run: the queue is empty and new
    submits are refused with typed [draining] responses. *)

val io_error_count : t -> int
(** Transport faults absorbed since start (the [GET health]
    [io_errors] field; also [serve.io_errors_total]). *)

val note_oversized : t -> int -> unit
(** Count [n] oversized-line discards ([serve.oversized_lines_total]
    and io-error kind ["oversized"]) — the transport calls this when
    its line guard drops input. *)

val note_io_error : t -> kind:string -> unit
(** Count one absorbed transport fault under the unlabeled
    [serve.io_errors_total] and its [serve.io_errors_total{kind="..."}]
    labeled sibling (kinds the socket server reports: ["accept"],
    ["epipe"], ["econnreset"], ["read"], ["write"], ["oversized"],
    ["slow-consumer"], ["fd-limit"]). *)
