module Engine = Stratrec.Engine
module Request = Stratrec.Request
module Obs = Stratrec_obs
module Brownout = Stratrec_resilience.Brownout

type config = {
  engine : Engine.config;
  queue_capacity : int;
  epoch_requests : int;
  max_line : int;
  window_seconds : float;
  slos : Obs.Slo.spec list;
  quotas : (string * Admission.quota) list;
  brownout : Brownout.config;
  drain_timeout_seconds : float;
  tenant_windows : int;
  flight_dir : string option;
  flight_slots : int;
}

let default_config =
  {
    engine = Engine.default_config;
    queue_capacity = 64;
    epoch_requests = 8;
    max_line = Protocol.default_max_line;
    window_seconds = 60.;
    slos = [];
    quotas = [];
    brownout = Brownout.default;
    drain_timeout_seconds = 30.;
    tenant_windows = 8;
    flight_dir = None;
    flight_slots = 16;
  }

(* What waits in the admission queue: the request plus the connection
   token its epoch result must route back to. *)
type pending = { request : Request.t; client : int }

(* One tenant's live windows, lazily materialized on first sight up to
   [config.tenant_windows] distinct tenants; later arrivals share the
   ["other"] overflow slot so a tenant flood cannot exhaust memory. The
   windows export under the shared serve.* family names with a
   [tenant="<slot>"] label. *)
type tenant_obs = {
  slot : string;  (* tenant name, or "other" for the overflow bucket *)
  tw_requests : Obs.Window.t;
  tw_queue : Obs.Window.t;
  tw_e2e : Obs.Window.t;
}

type t = {
  config : config;
  session : Engine.session;
  queue : pending Admission.t;
  clock : unit -> float;
  offset_hours : float ref;  (** simulated [tick] offset *)
  mutable stopped : bool;
  brownout : Brownout.t;
  mutable draining : bool;
      (** set by the [drain] verb: the queue has been flushed and the
          daemon refuses new work while staying scrapeable *)
  exposition : Buffer.t;  (** where each [GET metrics] text is written *)
  registry : Obs.Registry.t;  (** the session registry every instrument lives in *)
  mutable io_error_count : int;
  io_error_kinds : (string, Obs.Registry.counter) Hashtbl.t;
  (* serve.* instruments, all in the session registry *)
  submits : Obs.Registry.counter;
  accepted : Obs.Registry.counter;
  queue_full : Obs.Registry.counter;
  quota_rejects : Obs.Registry.counter;
  deadline_rejects : Obs.Registry.counter;
  duplicate_rejects : Obs.Registry.counter;
  protocol_errors : Obs.Registry.counter;
  oversized_lines : Obs.Registry.counter;
  shed_total : Obs.Registry.counter;
  shed_low_priority : Obs.Registry.counter;
  shed_over_share : Obs.Registry.counter;
  brownout_escalations : Obs.Registry.counter;
  brownout_recoveries : Obs.Registry.counter;
  drains_total : Obs.Registry.counter;
  drain_forced : Obs.Registry.counter;
  io_errors : Obs.Registry.counter;
  epochs_total : Obs.Registry.counter;
  epoch_admitted : Obs.Registry.counter;
  depth_gauge : Obs.Registry.gauge;
  brownout_rung_gauge : Obs.Registry.gauge;
  clock_gauge : Obs.Registry.gauge;
  epoch_fill : Obs.Registry.histogram;
  queue_wait : Obs.Registry.histogram;
  (* sliding windows over the daemon clock (tick-aware), exported as
     *.window.* gauges on every metrics/health/slo read *)
  w_requests : Obs.Window.t;  (** submit arrivals (rate only) *)
  w_queue : Obs.Window.t;  (** admission wait per triaged request *)
  w_triage : Obs.Window.t;  (** triage stage per epoch *)
  w_deploy : Obs.Window.t;  (** deploy stage per epoch *)
  w_e2e : Obs.Window.t;  (** end-to-end latency per triaged request *)
  slos : Obs.Slo.t list;
  tenant_obs : (string, tenant_obs) Hashtbl.t;
      (** slot key (tenant name or ["other"]) -> windows *)
  tenant_sheds : (string, int ref) Hashtbl.t;
      (** cumulative shed count per tenant (flight-recorder payload) *)
  flight : Flight.t option;  (** present iff [config.flight_dir] is set *)
  flight_dumps : Obs.Registry.counter;
  mutable flight_counters : (string * int) list;
      (** serve.* counter totals at the last flight record *)
  mutable flight_health : Protocol.health_state;
  mutable flight_burning : string list;
      (** SLO names firing at the last flight check *)
  mutable last_submit_id : int option;
}

let now t = t.clock () +. (!(t.offset_hours) *. 3600.)

let create ?(clock = Obs.Registry.wall_clock) ?rng ~config ~availability ~strategies () =
  if config.queue_capacity < 1 then
    Error (`Invalid_config "serve queue capacity must be >= 1")
  else if config.epoch_requests < 1 then
    Error (`Invalid_config "serve epoch fill target must be >= 1")
  else if config.max_line < 1 then
    Error (`Invalid_config "serve line limit must be >= 1")
  else if not (config.window_seconds > 0.) then
    Error (`Invalid_config "serve window span must be positive")
  else if not (config.drain_timeout_seconds >= 0.) then
    Error (`Invalid_config "serve drain timeout must be >= 0")
  else if config.tenant_windows < 1 then
    Error (`Invalid_config "serve tenant window cap must be >= 1")
  else if config.flight_slots < 1 then
    Error (`Invalid_config "serve flight recorder needs at least one slot")
  else
    match
      ( Brownout.validate config.brownout,
        List.find_map
          (fun (tenant, q) ->
            match Admission.validate_quota q with
            | Ok () -> None
            | Error m -> Some (Printf.sprintf "serve quota for tenant %S: %s" tenant m))
          config.quotas )
    with
    | Error m, _ -> Error (`Invalid_config ("serve brownout: " ^ m))
    | Ok (), Some m -> Error (`Invalid_config m)
    | Ok (), None ->

    (* The observability clock: the injectable base clock plus the
       simulated tick offset, shared by the windows, the SLO trackers
       and (when the daemon owns it) the registry — so stage stamps,
       window rotation and deadline expiry all move on one axis and a
       fake clock makes them all deterministic. *)
    let offset_hours = ref 0. in
    let obs_clock () = clock () +. (!offset_hours *. 3600.) in
    (* One registry for everything the daemon exposes: install a session
       registry when the engine config carries none, so serve.* and the
       engine/aggregator/resilience metrics share a single scrape. *)
    let registry =
      match config.engine.Engine.metrics with
      | Some registry -> registry
      | None -> Obs.Registry.create ~clock:obs_clock ()
    in
    let config = { config with engine = Engine.with_metrics config.engine registry } in
    match Engine.create ~config:config.engine ?rng ~availability ~strategies () with
    | Error _ as e -> e
    | Ok session ->
        let labeled_counter labels name =
          let c = Obs.Registry.counter ~labels registry name in
          Obs.Registry.incr_by c 0;
          (* register at 0: scrapeable before first use *)
          c
        in
        let counter name = labeled_counter [] name in
        let window () =
          Obs.Window.create ~clock:obs_clock ~metrics:registry
            ~window_seconds:config.window_seconds ()
        in
        let t =
          {
            config;
            session;
            queue = Admission.create ~capacity:config.queue_capacity ~quotas:config.quotas ();
            clock;
            offset_hours;
            stopped = false;
            brownout = Result.get_ok (Brownout.create config.brownout);
            draining = false;
            exposition = Buffer.create 4096;
            registry;
            io_error_count = 0;
            io_error_kinds = Hashtbl.create 8;
            submits = counter "serve.submits_total";
            accepted = counter "serve.accepted_total";
            queue_full = counter "serve.rejected_queue_full_total";
            quota_rejects = counter "serve.rejected_quota_total";
            deadline_rejects = counter "serve.rejected_deadline_total";
            duplicate_rejects = counter "serve.rejected_duplicate_total";
            protocol_errors = counter "serve.protocol_errors_total";
            oversized_lines = counter "serve.oversized_lines_total";
            shed_total = counter "serve.shed_total";
            shed_low_priority =
              labeled_counter [ ("reason", "low-priority") ] "serve.shed_total";
            shed_over_share =
              labeled_counter [ ("reason", "over-share") ] "serve.shed_total";
            brownout_escalations = counter "serve.brownout.escalations_total";
            brownout_recoveries = counter "serve.brownout.recoveries_total";
            drains_total = counter "serve.drains_total";
            drain_forced = counter "serve.drain_forced_total";
            io_errors = counter "serve.io_errors_total";
            epochs_total = counter "serve.epochs_total";
            epoch_admitted = counter "serve.epoch_requests_total";
            depth_gauge = Obs.Registry.gauge registry "serve.queue_depth";
            brownout_rung_gauge = Obs.Registry.gauge registry "serve.brownout_rung";
            clock_gauge = Obs.Registry.gauge registry "serve.clock_hours";
            epoch_fill =
              Obs.Registry.histogram ~buckets:Obs.Registry.fraction_buckets registry
                "serve.epoch_fill_ratio";
            queue_wait = Obs.Registry.histogram registry "serve.queue_wait_seconds";
            w_requests = window ();
            w_queue = window ();
            w_triage = window ();
            w_deploy = window ();
            w_e2e = window ();
            slos = List.map (fun spec -> Obs.Slo.create ~clock:obs_clock spec) config.slos;
            tenant_obs = Hashtbl.create 8;
            tenant_sheds = Hashtbl.create 8;
            flight =
              (match config.flight_dir with
              | Some _ -> Some (Flight.create ~slots:config.flight_slots)
              | None -> None);
            flight_dumps = counter "serve.flight_dumps_total";
            flight_counters = [];
            flight_health = Protocol.Ready;
            flight_burning = [];
            last_submit_id = None;
          }
        in
        Obs.Registry.set t.depth_gauge 0.;
        Ok t

let queue_depth t = Admission.length t.queue
let max_line t = t.config.max_line
let drain_timeout t = t.config.drain_timeout_seconds
let epochs t = Engine.epochs t.session
let stopped t = t.stopped
let clock_hours t = !(t.offset_hours)
let brownout_rung t = Brownout.rung t.brownout
let draining t = t.draining
let io_error_count t = t.io_error_count

(* Transport fault accounting: one shared total plus a per-kind labeled
   series minted on first use, so the scrape names every distinct
   failure mode the transport has absorbed (accept, epipe, econnreset,
   read, write, oversized, slow-consumer, fd-limit) without
   pre-registering a closed set — all
   under the one serve.io_errors_total family. *)
let note_io_error t ~kind =
  t.io_error_count <- t.io_error_count + 1;
  Obs.Registry.incr t.io_errors;
  let c =
    match Hashtbl.find_opt t.io_error_kinds kind with
    | Some c -> c
    | None ->
        let c =
          Obs.Registry.counter ~labels:[ ("kind", kind) ] t.registry
            "serve.io_errors_total"
        in
        Hashtbl.add t.io_error_kinds kind c;
        c
  in
  Obs.Registry.incr c

(* The tenant's window slot: existing tenants keep theirs, new tenants
   materialize one while fewer than [tenant_windows] real slots exist,
   and everyone later lands in the shared "other" overflow bucket (a
   literal tenant named "other" shares it too). The empty tenant is not
   a tenant — the unlabeled global windows already cover it. *)
let tenant_slot t tenant =
  if tenant = "" then None
  else
    match Hashtbl.find_opt t.tenant_obs tenant with
    | Some o -> Some o
    | None ->
        let materialize slot =
          let window () =
            Obs.Window.create
              ~clock:(fun () -> now t)
              ~metrics:t.registry ~window_seconds:t.config.window_seconds ()
          in
          let o =
            { slot; tw_requests = window (); tw_queue = window (); tw_e2e = window () }
          in
          Hashtbl.add t.tenant_obs slot o;
          o
        in
        let occupied = Hashtbl.length t.tenant_obs in
        let has_other = Hashtbl.mem t.tenant_obs "other" in
        let real_slots = if has_other then occupied - 1 else occupied in
        if tenant <> "other" && real_slots < t.config.tenant_windows then
          Some (materialize tenant)
        else if has_other then Hashtbl.find_opt t.tenant_obs "other"
        else Some (materialize "other")

let note_tenant_shed t ~tenant =
  let key = if tenant = "" then "other" else tenant in
  match Hashtbl.find_opt t.tenant_sheds key with
  | Some r -> incr r
  | None -> Hashtbl.add t.tenant_sheds key (ref 1)

(* Brownout rung effects (DESIGN.md §5i), keyed to absolute rung
   numbers; the ladder stops at rung 3.
   Rung 1 sheds nothing: it is the first warning, seen in the rung
   gauge, the health reasons and the logs. Rung 2 halves the epoch fill
   so epochs close sooner and drain faster; rung 3 sheds load itself —
   low-priority and over-share submits are refused with typed
   [overloaded] responses. At rung 0 nothing below runs, preserving the
   bit-identity contract. *)
let effective_epoch_fill t =
  if brownout_rung t >= 2 then Stdlib.max 1 (t.config.epoch_requests / 2)
  else t.config.epoch_requests

let shed_reason t ~tenant =
  if brownout_rung t < 3 then None
  else
    let q = Admission.quota t.queue ~tenant in
    if q.Admission.weight < 1. then Some "low-priority"
    else
      let share =
        Stdlib.max 1
          (int_of_float
             (Float.ceil (float_of_int (effective_epoch_fill t) *. q.Admission.weight)))
      in
      if Admission.tenant_depth t.queue ~tenant >= share then Some "over-share" else None

let e2e_p99 t = Obs.Window.quantile t.w_e2e 0.99

(* One ladder evaluation: queue saturation and the sliding-window e2e
   p99 are the pressure signals. Called once per handled line, so the
   walk is deterministic under a fake clock. The p99 builds a histogram
   of the window, so it is computed only when the ladder reads it (the
   latency signal is on) or an escalation logs it: a steady step without
   the latency signal costs two reads. *)
let evaluate_brownout t =
  let saturation =
    float_of_int (Admission.length t.queue) /. float_of_int t.config.queue_capacity
  in
  let latency_signal = t.config.brownout.Brownout.p99_high > 0. in
  (* With the latency signal off, Brownout.evaluate never reads p99. *)
  let p99 = if latency_signal then e2e_p99 t else 0. in
  let log = t.config.engine.Engine.log in
  let num f = Stratrec_util.Json.Number f in
  let rung_of i = num (float_of_int i) in
  match Brownout.evaluate t.brownout ~saturation ~p99 with
  | Brownout.Steady -> ()
  | Brownout.Escalated { from_; to_; reason } ->
      let p99 = if latency_signal then p99 else e2e_p99 t in
      Obs.Registry.incr t.brownout_escalations;
      Obs.Registry.set t.brownout_rung_gauge (float_of_int to_);
      Obs.Log.warn log "brownout escalated"
        ~fields:
          [
            ("from", rung_of from_);
            ("to", rung_of to_);
            ("reason", Stratrec_util.Json.String reason);
            ("saturation", num saturation);
            ("p99_seconds", num p99);
          ]
  | Brownout.Recovered { from_; to_ } ->
      Obs.Registry.incr t.brownout_recoveries;
      Obs.Registry.set t.brownout_rung_gauge (float_of_int to_);
      Obs.Log.info log "brownout recovered"
        ~fields:[ ("from", rung_of from_); ("to", rung_of to_) ]

(* Re-export the live window aggregates and SLO evaluations as gauges,
   so every snapshot read (scrape, health, slo, tests) sees current
   recent-window state. SLO evaluation here also emits alert-transition
   log records through the engine's run log. *)
let refresh_observability t =
  let r = t.registry in
  (* serve.requests is an arrival stream, not a latency sample — only
     its count and rate are meaningful, so the family exports
     rate-only (globally and per tenant). *)
  Obs.Window.export ~rate_only:true t.w_requests r ~name:"serve.requests";
  Obs.Window.export t.w_queue r ~name:"serve.queue_wait_seconds";
  Obs.Window.export t.w_triage r ~name:"serve.triage_seconds";
  Obs.Window.export t.w_deploy r ~name:"serve.deploy_seconds";
  Obs.Window.export t.w_e2e r ~name:"serve.e2e_seconds";
  let slots =
    Hashtbl.fold (fun _ o acc -> o :: acc) t.tenant_obs []
    |> List.sort (fun a b -> String.compare a.slot b.slot)
  in
  List.iter
    (fun o ->
      let labels = [ ("tenant", o.slot) ] in
      Obs.Window.export ~labels ~rate_only:true o.tw_requests r ~name:"serve.requests";
      Obs.Window.export ~labels o.tw_queue r ~name:"serve.queue_wait_seconds";
      Obs.Window.export ~labels o.tw_e2e r ~name:"serve.e2e_seconds")
    slots;
  List.iter (fun slo -> Obs.Slo.export ~log:t.config.engine.Engine.log slo r) t.slos

let metrics t =
  refresh_observability t;
  Engine.session_metrics t.session

(* The GET metrics text, written through the daemon's one exposition
   buffer: after the first scrape it has the size a scrape needs, so a
   scrape allocates its text and no buffer grown from scratch, which
   would be major-heap garbage (see [Server.flush_queue]). *)
let exposition t =
  Buffer.clear t.exposition;
  Obs.Snapshot.add_openmetrics t.exposition (metrics t);
  Buffer.contents t.exposition

let update_depth t =
  Obs.Registry.set t.depth_gauge (float_of_int (Admission.length t.queue))

let expired_response (a : pending Admission.admitted) =
  ( a.Admission.item.client,
    Protocol.Deadline_expired
      {
        id = Request.id a.Admission.item.request;
        tenant = a.Admission.tenant;
        waited_seconds = a.Admission.waited_seconds;
      } )

(* Keep the first occurrence of each request id in dequeue order; later
   ones would fail the whole Engine.submit (duplicate ids), so they are
   bounced individually with a typed response instead. *)
let dedupe admitted =
  let seen = Hashtbl.create 16 in
  List.partition_map
    (fun (a : pending Admission.admitted) ->
      let id = Request.id a.Admission.item.request in
      if Hashtbl.mem seen id then Either.Right a
      else begin
        Hashtbl.add seen id ();
        Either.Left a
      end)
    admitted

(* The epoch's retry budget: the tightest unspent admission deadline
   across the batch (hours) — absent when nothing in the batch carries
   one. Engine.submit threads it into the deploy retry policy. *)
let epoch_budget admitted =
  List.fold_left
    (fun acc (a : pending Admission.admitted) ->
      match (acc, a.Admission.remaining_hours) with
      | None, r -> r
      | Some b, Some r -> Some (Float.min b r)
      | Some b, None -> Some b)
    None admitted

let deploy_verdicts (report : Engine.report) =
  List.map
    (fun (d : Engine.deployed) ->
      ( Request.id d.Engine.request,
        match d.Engine.outcome with
        | Engine.Completed _ -> "completed"
        | Engine.Rejected reason -> Engine.rejection_reason reason ))
    report.Engine.deployed

(* SLO classification: a request met the service level when it was
   answered and any deploy stage completed (the verdict is absent or
   "completed"); deadline expiry and deploy rejection spend budget.
   Global trackers see every request; tenant-scoped trackers see only
   their tenant's. *)
let record_slo t ~tenant ~ok ~latency_seconds =
  List.iter
    (fun slo ->
      match (Obs.Slo.spec_of slo).Obs.Slo.tenant with
      | None -> Obs.Slo.record ~latency_seconds slo ~ok
      | Some scope ->
          if String.equal scope tenant then Obs.Slo.record ~latency_seconds slo ~ok)
    t.slos

let evaluate_slos t =
  List.iter
    (fun slo -> ignore (Obs.Slo.evaluate ~log:t.config.engine.Engine.log slo : Obs.Slo.evaluation))
    t.slos

(* Burning trackers with their reason attribution: a tenant-scoped spec
   burns under the tenant's name ("slo-burning:acme"), a global one
   under the SLO's. Reads the firing state as of the last evaluate —
   does not itself evaluate. *)
let burning_slos t =
  List.filter_map
    (fun slo ->
      if Obs.Slo.burning slo then
        let spec = Obs.Slo.spec_of slo in
        Some (spec.Obs.Slo.name, spec.Obs.Slo.tenant)
      else None)
    t.slos

(* Tenants sitting at their own max_queued cap while the shared queue
   still has room — per-tenant backpressure the global depth gauge
   cannot show. *)
let quota_saturated t =
  List.filter_map
    (fun (tenant, (q : Admission.quota)) ->
      match q.Admission.max_queued with
      | Some limit when Admission.tenant_depth t.queue ~tenant >= limit -> Some tenant
      | _ -> None)
    t.config.quotas

(* The readiness rubric (DESIGN.md §5h), from already-evaluated signals:
   it reads the SLO trackers' firing state as of the last evaluate and
   never evaluates them itself, so flight notes emit no alert-transition
   logs of their own. Unhealthy: stopped, or the queue is full while the
   circuit breaker is open (no intake and no deploy drain — the daemon
   cannot make progress). Degraded: any single pressure signal — breaker
   not closed, queue at >= 80% of capacity, a brownout rung, draining, an
   SLO burning, or a tenant pinned at its quota. Ready otherwise. Reasons
   bind the verdict and name the offending tenant ("slo-burning:acme",
   "quota-saturated:acme") so operators see who, not just what.
   [?tenant] scopes the verdict: daemon-global signals stay, but only
   that tenant's slo/quota reasons count. Returns the state, its reasons
   and the burning SLOs in scope. *)
let assess ?tenant t =
  let depth = Admission.length t.queue and capacity = t.config.queue_capacity in
  let breaker = Engine.breaker_state t.session in
  let in_scope scope = match tenant with None -> true | Some tn -> scope = Some tn in
  let burning = List.filter (fun (_, scope) -> in_scope scope) (burning_slos t) in
  let saturated = List.filter (fun tn -> in_scope (Some tn)) (quota_saturated t) in
  let queue_full = depth >= capacity in
  let reasons =
    (if t.stopped then [ "stopped" ] else [])
    @ (match breaker with
      | Some Stratrec_resilience.Breaker.Open -> [ "breaker-open" ]
      | Some Stratrec_resilience.Breaker.Half_open -> [ "breaker-half-open" ]
      | Some Stratrec_resilience.Breaker.Closed | None -> [])
    @ (if queue_full then [ "queue-full" ]
       else if depth * 5 >= capacity * 4 then [ "queue-saturated" ]
       else [])
    @ (if brownout_rung t > 0 then [ Printf.sprintf "brownout-rung:%d" (brownout_rung t) ]
       else [])
    @ (if t.draining then [ "draining" ] else [])
    @ List.map
        (fun (name, scope) -> "slo-burning:" ^ Option.value ~default:name scope)
        burning
    @ List.map (fun tn -> "quota-saturated:" ^ tn) saturated
  in
  let state =
    if t.stopped || (queue_full && breaker = Some Stratrec_resilience.Breaker.Open) then
      Protocol.Unhealthy
    else if reasons <> [] then Protocol.Degraded
    else Protocol.Ready
  in
  (state, reasons, burning)

(* serve.* counter totals keyed by encoded series — the flight
   recorder's delta baseline. *)
let serve_counters t =
  List.filter_map
    (fun (e : Obs.Snapshot.entry) ->
      match e.Obs.Snapshot.value with
      | Obs.Snapshot.Counter n
        when String.length e.Obs.Snapshot.name >= 6
             && String.sub e.Obs.Snapshot.name 0 6 = "serve." ->
          Some (Obs.Snapshot.series_name e, n)
      | _ -> None)
    (Engine.session_metrics t.session)

(* One flight record per epoch: what moved since the previous record,
   plus the pressure state at note time. *)
let flight_note t ~epoch ~admitted ~expired =
  match t.flight with
  | None -> ()
  | Some flight ->
      let totals = serve_counters t in
      let delta =
        List.filter_map
          (fun (series, total) ->
            let prev =
              Option.value ~default:0 (List.assoc_opt series t.flight_counters)
            in
            if total > prev then Some (series, total - prev) else None)
          totals
      in
      t.flight_counters <- totals;
      let sheds =
        Hashtbl.fold (fun tenant r acc -> (tenant, !r) :: acc) t.tenant_sheds []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let health, _, _ = assess t in
      Flight.note flight ~clock_seconds:(now t) ~epoch ~admitted ~expired
        ~queue_depth:(Admission.length t.queue)
        ~brownout_rung:(brownout_rung t)
        ~health:(Protocol.health_state_label health)
        ~counters_delta:delta ~tenant_sheds:sheds ~last_id:t.last_submit_id

let flight_dump t ~reason =
  match (t.flight, t.config.flight_dir) with
  | Some flight, Some dir -> (
      match Flight.dump flight ~dir ~reason ~clock_seconds:(now t) with
      | Ok _ as ok ->
          Obs.Registry.incr t.flight_dumps;
          ok
      | Error _ as e -> e)
  | _ -> Error "flight recorder disabled (start with --flight-dir)"

(* Incident detection, once per handled line: a health transition into
   degraded/unhealthy, or an SLO newly firing, triggers an automatic
   ring dump so the epochs leading up to the incident are preserved.
   Evaluates the trackers first so burn trips surface even on quiet
   sockets; a dump-write failure is swallowed here (the explicit dump
   verb reports it). *)
let flight_check t =
  match t.flight with
  | None -> ()
  | Some _ ->
      evaluate_slos t;
      let state, _, _ = assess t in
      let burning = List.map fst (burning_slos t) in
      let newly =
        List.filter (fun name -> not (List.mem name t.flight_burning)) burning
      in
      let transitions =
        (match state with
        | (Protocol.Degraded | Protocol.Unhealthy) when state <> t.flight_health ->
            [ "health:" ^ Protocol.health_state_label state ]
        | _ -> [])
        @ List.map (fun name -> "slo-fast-burn:" ^ name) newly
      in
      t.flight_health <- state;
      t.flight_burning <- burning;
      if transitions <> [] then
        ignore
          (flight_dump t ~reason:(String.concat "," transitions)
            : (string * int, string) result)

(* Run one epoch over up to [max] fairly-drained requests. Responses:
   one Deadline_expired per expired entry, one Duplicate_id per bounced
   duplicate, one Completed per triaged request (routed to its
   submitter), then Epoch_closed to the client whose line triggered the
   epoch. *)
let run_epoch t ~client ~max =
  let clock_now = now t in
  let admitted, expired = Admission.drain t.queue ~now:clock_now ~max in
  update_depth t;
  let expired_responses = List.map (expired_response) expired in
  List.iter
    (fun (a : pending Admission.admitted) ->
      record_slo t ~tenant:a.Admission.tenant ~ok:false
        ~latency_seconds:a.Admission.waited_seconds)
    expired;
  Obs.Registry.incr_by t.deadline_rejects (List.length expired);
  let batch, duplicates = dedupe admitted in
  Obs.Registry.incr_by t.duplicate_rejects (List.length duplicates);
  let duplicate_responses =
    List.map
      (fun (a : pending Admission.admitted) ->
        ( a.Admission.item.client,
          Protocol.Duplicate_id
            { id = Request.id a.Admission.item.request; tenant = a.Admission.tenant } ))
      duplicates
  in
  let epoch_responses =
    match batch with
    | [] ->
        [
          ( client,
            Protocol.Epoch_closed
              { epoch = epochs t; admitted = 0; expired = List.length expired } );
        ]
    | batch -> (
        List.iter
          (fun (a : pending Admission.admitted) ->
            Obs.Registry.observe t.queue_wait a.Admission.waited_seconds;
            Obs.Window.observe t.w_queue a.Admission.waited_seconds;
            Option.iter
              (fun o -> Obs.Window.observe o.tw_queue a.Admission.waited_seconds)
              (tenant_slot t a.Admission.tenant))
          batch;
        let requests = List.map (fun a -> a.Admission.item.request) batch in
        match Engine.submit ?deadline_hours:(epoch_budget batch) t.session requests with
        | Error e ->
            (* Unexpected by construction (duplicates are bounced above);
               answer every submitter with the typed engine error rather
               than dropping their requests silently. *)
            let reason = Engine.error_message e in
            List.map
              (fun (a : pending Admission.admitted) ->
                (a.Admission.item.client, Protocol.Error_ { reason }))
              batch
            @ [
                ( client,
                  Protocol.Epoch_closed
                    { epoch = epochs t; admitted = 0; expired = List.length expired } );
              ]
        | Ok report ->
            Obs.Registry.incr t.epochs_total;
            Obs.Registry.incr_by t.epoch_admitted (List.length batch);
            Obs.Registry.observe t.epoch_fill
              (float_of_int (List.length batch)
              /. float_of_int t.config.epoch_requests);
            let triage_seconds = report.Engine.lineage.Engine.triage_seconds in
            let deploy_seconds = report.Engine.lineage.Engine.deploy_seconds in
            Obs.Window.observe t.w_triage triage_seconds;
            Obs.Window.observe t.w_deploy deploy_seconds;
            let verdicts = deploy_verdicts report in
            let completed =
              List.map2
                (fun (a : pending Admission.admitted) (_, outcome) ->
                  let id = Request.id a.Admission.item.request in
                  let deployed = List.assoc_opt id verdicts in
                  let total_seconds =
                    a.Admission.waited_seconds +. triage_seconds +. deploy_seconds
                  in
                  Obs.Window.observe t.w_e2e total_seconds;
                  Option.iter
                    (fun o -> Obs.Window.observe o.tw_e2e total_seconds)
                    (tenant_slot t a.Admission.tenant);
                  record_slo t ~tenant:a.Admission.tenant ~latency_seconds:total_seconds
                    ~ok:(match deployed with None | Some "completed" -> true | Some _ -> false);
                  ( a.Admission.item.client,
                    Protocol.Completed
                      {
                        id;
                        tenant = a.Admission.tenant;
                        epoch = report.Engine.epoch;
                        outcome = Protocol.outcome_of_aggregator outcome;
                        deployed;
                        lineage =
                          Some
                            {
                              Protocol.queue_seconds = a.Admission.waited_seconds;
                              triage_seconds;
                              deploy_seconds;
                              total_seconds;
                            };
                      } ))
                batch
                (Array.to_list report.Engine.aggregate.Stratrec.Aggregator.outcomes)
            in
            evaluate_slos t;
            completed
            @ [
                ( client,
                  Protocol.Epoch_closed
                    {
                      epoch = report.Engine.epoch;
                      admitted = List.length batch;
                      expired = List.length expired;
                    } );
              ])
  in
  flight_note t ~epoch:(epochs t) ~admitted:(List.length batch)
    ~expired:(List.length expired);
  expired_responses @ duplicate_responses @ epoch_responses

(* Bounded drain, shared by the [drain] verb and [shutdown]: run
   epochs until the queue empties or the wall budget elapses, then
   force-close whatever is left with a typed [drain-expired] per
   request — every queued request is answered, deadline-expired or
   forced, none leak. A zero budget skips straight to the force-close
   (the deterministic spelling for tests); under a fake clock the loop
   runs to empty, which is the legacy shutdown behaviour. Termination:
   each epoch removes at least one entry and nothing is admitted
   mid-drain. *)
let drain_bounded t ~client =
  let started = now t in
  let budget = t.config.drain_timeout_seconds in
  let answered = ref 0 and expired = ref 0 and epochs_run = ref 0 in
  let acc = ref [] in
  while Admission.length t.queue > 0 && now t -. started < budget do
    let responses = run_epoch t ~client ~max:(effective_epoch_fill t) in
    incr epochs_run;
    List.iter
      (fun (_, r) ->
        match r with
        | Protocol.Completed _ | Protocol.Duplicate_id _ -> incr answered
        | Protocol.Deadline_expired _ -> incr expired
        | _ -> ())
      responses;
    acc := !acc @ responses
  done;
  let leftovers = Admission.evict_all t.queue ~now:(now t) in
  update_depth t;
  let forced =
    List.map
      (fun (a : pending Admission.admitted) ->
        ( a.Admission.item.client,
          Protocol.Drain_expired
            {
              id = Request.id a.Admission.item.request;
              tenant = a.Admission.tenant;
              waited_seconds = a.Admission.waited_seconds;
            } ))
      leftovers
  in
  Obs.Registry.incr_by t.drain_forced (List.length forced);
  (!acc @ forced, (!answered, !expired, List.length forced, !epochs_run))

(* GET health: the rubric over freshly evaluated SLO trackers. Under
   [?tenant], [queue_depth] is the tenant's own. *)
let health ?tenant t =
  evaluate_slos t;
  let state, reasons, burning = assess ?tenant t in
  Protocol.Health_status
    {
      state;
      scope = tenant;
      reasons;
      breaker =
        Option.map Stratrec_resilience.Breaker.state_label (Engine.breaker_state t.session);
      queue_depth =
        (match tenant with
        | None -> Admission.length t.queue
        | Some tn -> Admission.tenant_depth t.queue ~tenant:tn);
      queue_capacity = t.config.queue_capacity;
      slo_burning = List.length burning;
      epochs = epochs t;
      brownout_rung = brownout_rung t;
      draining = t.draining;
      io_errors = t.io_error_count;
      cache_hit_ratio = Engine.cache_hit_ratio t.session;
    }

let slo_report ?tenant t =
  let in_scope slo =
    match tenant with
    | None -> true
    | Some tn -> (Obs.Slo.spec_of slo).Obs.Slo.tenant = Some tn
  in
  Protocol.Slo_report
    (List.filter_map
       (fun slo ->
         if not (in_scope slo) then None
         else
           let e = Obs.Slo.evaluate ~log:t.config.engine.Engine.log slo in
           let spec = Obs.Slo.spec_of slo in
           Some
             {
               Protocol.slo = spec.Obs.Slo.name;
               slo_tenant = spec.Obs.Slo.tenant;
               burning = e.Obs.Slo.burning;
               fast_burn_rate = e.Obs.Slo.fast_burn_rate;
               slow_burn_rate = e.Obs.Slo.slow_burn_rate;
               budget_remaining = e.Obs.Slo.budget_remaining;
             })
       t.slos)

(* Transport guard hook: the socket server reports each oversized-line
   discard here so the drops are scrapeable — both under the legacy
   oversized counter and as an io-error kind. *)
let note_oversized t dropped =
  if dropped > 0 then begin
    Obs.Registry.incr_by t.oversized_lines dropped;
    for _ = 1 to dropped do
      note_io_error t ~kind:"oversized"
    done
  end

let handle_command t ~client command =
  match command with
  | Protocol.Submit request -> (
      Obs.Registry.incr t.submits;
      Obs.Window.mark t.w_requests;
      let id = Request.id request and tenant = Request.tenant request in
      t.last_submit_id <- Some id;
      Option.iter (fun o -> Obs.Window.mark o.tw_requests) (tenant_slot t tenant);
      if t.draining then ([ (client, Protocol.Draining { id; tenant }) ], `Continue)
      else
        match shed_reason t ~tenant with
        | Some reason ->
            Obs.Registry.incr t.shed_total;
            Obs.Registry.incr
              (if reason = "low-priority" then t.shed_low_priority else t.shed_over_share);
            note_tenant_shed t ~tenant;
            ( [
                ( client,
                  Protocol.Overloaded { id; tenant; rung = brownout_rung t; reason } );
              ],
              `Continue )
        | None -> (
            let pending = { request; client } in
            match
              Admission.offer t.queue ~now:(now t) ~tenant
                ?deadline_hours:request.Request.deadline_hours pending
            with
            | Error `Queue_full ->
                Obs.Registry.incr t.queue_full;
                ( [
                    ( client,
                      Protocol.Queue_full
                        { id; tenant; queue_depth = Admission.length t.queue } );
                  ],
                  `Continue )
            | Error (`Quota_exceeded (queued, limit)) ->
                Obs.Registry.incr t.quota_rejects;
                ( [ (client, Protocol.Quota_exceeded { id; tenant; queued; limit }) ],
                  `Continue )
            | Ok () ->
                Obs.Registry.incr t.accepted;
                update_depth t;
                let ack =
                  ( client,
                    Protocol.Accepted
                      { id; tenant; queue_depth = Admission.length t.queue } )
                in
                if Admission.length t.queue >= effective_epoch_fill t then
                  (ack :: run_epoch t ~client ~max:(effective_epoch_fill t), `Continue)
                else ([ ack ], `Continue)))
  | Protocol.Flush -> (run_epoch t ~client ~max:(effective_epoch_fill t), `Continue)
  | Protocol.Drain ->
      Obs.Registry.incr t.drains_total;
      let responses, (answered, expired, forced, epochs_run) = drain_bounded t ~client in
      t.draining <- true;
      ( responses
        @ [ (client, Protocol.Drained { answered; expired; forced; epochs = epochs_run }) ],
        `Continue )
  | Protocol.Metrics ->
      ( [
          ( client,
            Protocol.Metrics_text (exposition t) );
        ],
        `Continue )
  | Protocol.Health tenant -> ([ (client, health ?tenant t) ], `Continue)
  | Protocol.Slo tenant -> ([ (client, slo_report ?tenant t) ], `Continue)
  | Protocol.Dump -> (
      match t.flight with
      | None ->
          ( [
              ( client,
                Protocol.Error_
                  { reason = "flight recorder disabled (start with --flight-dir)" } );
            ],
            `Continue )
      | Some _ -> (
          match flight_dump t ~reason:"dump" with
          | Ok (path, records) ->
              ([ (client, Protocol.Dumped { path; records }) ], `Continue)
          | Error m ->
              ( [ (client, Protocol.Error_ { reason = "flight dump failed: " ^ m }) ],
                `Continue )))
  | Protocol.Unknown_get path ->
      Obs.Registry.incr t.protocol_errors;
      ([ (client, Protocol.Unknown_endpoint { path }) ], `Continue)
  | Protocol.Ping -> ([ (client, Protocol.Pong) ], `Continue)
  | Protocol.Tick hours ->
      let offset = !(t.offset_hours) +. hours in
      (* An infinite clock would render as a non-finite JSON number in
         the next epoch's lineage, so such a tick is refused outright. *)
      if Float.is_finite (t.clock () +. (offset *. 3600.)) then begin
        t.offset_hours := offset;
        Obs.Registry.set t.clock_gauge offset;
        ([ (client, Protocol.Ticked { clock_hours = offset }) ], `Continue)
      end
      else begin
        Obs.Registry.incr t.protocol_errors;
        let reason = Printf.sprintf "tick: %g hours would overflow the daemon clock" hours in
        ([ (client, Protocol.Error_ { reason }) ], `Continue)
      end
  | Protocol.Shutdown ->
      let responses, _summary = drain_bounded t ~client in
      t.stopped <- true;
      Engine.close t.session;
      (responses @ [ (client, Protocol.Shutting_down) ], `Stop)

let handle_line t ~client line =
  if t.stopped then
    ([ (client, Protocol.Error_ { reason = "daemon is shutting down" }) ], `Stop)
  else
    match Protocol.parse ~max_line:t.config.max_line line with
    | Error reason ->
        Obs.Registry.incr t.protocol_errors;
        ([ (client, Protocol.Error_ { reason }) ], `Continue)
    | Ok command ->
        let result = handle_command t ~client command in
        (* One ladder step per handled line: deterministic walk, and a
           steady rung 0 without the latency signal costs two reads —
           the bit-identity contract for unloaded serving holds. *)
        evaluate_brownout t;
        (* Then one incident check: with a flight recorder configured,
           health transitions and SLO burn trips dump the ring here. A
           clean shutdown is not an incident — skip the check once the
           command stopped the daemon. *)
        if not t.stopped then flight_check t;
        result
