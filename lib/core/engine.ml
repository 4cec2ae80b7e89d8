module Model = Stratrec_model
module Sim = Stratrec_crowdsim
module Obs = Stratrec_obs
module Res = Stratrec_resilience
module Json = Stratrec_util.Json
module Deployment = Model.Deployment
module Strategy = Model.Strategy

type deploy_config = {
  platform : Sim.Platform.t;
  kind : Sim.Task_spec.kind;
  window : Sim.Window.t;
  capacity : int;
  faults : Res.Fault.t;
  resilience : Res.Degrade.policy;
}

type config = {
  aggregator : Aggregator.config;
  metrics : Obs.Registry.t option;
  trace : Obs.Trace.t;
  deploy : deploy_config option;
  domains : int;
  profile : bool;
  log : Obs.Log.t;
  cache : Triage_cache.config option;
}

let default_config =
  {
    aggregator = Aggregator.default_config;
    metrics = None;
    trace = Obs.Trace.noop;
    deploy = None;
    domains = 1;
    profile = false;
    log = Obs.Log.noop;
    cache = None;
  }

let with_aggregator config aggregator = { config with aggregator }
let with_objective config objective =
  { config with aggregator = { config.aggregator with Aggregator.objective } }
let with_metrics config metrics = { config with metrics = Some metrics }
let with_trace config trace = { config with trace }
let with_deploy config deploy = { config with deploy }
let with_domains config domains = { config with domains }
let with_profile config profile = { config with profile }
let with_log config log = { config with log }
let with_cache config cache = { config with cache }

type rejection = Breaker_open | Deadline_exhausted | All_attempts_empty

let rejection_reason = function
  | Breaker_open -> "circuit breaker open"
  | Deadline_exhausted -> "deadline budget exhausted"
  | All_attempts_empty -> "every attempt came back empty"

type deploy_outcome = Completed of Sim.Campaign.result | Rejected of rejection

type attempt = {
  rung : Res.Degrade.rung;
  strategy : Strategy.t;
  at_hours : float;
  result : Sim.Campaign.result option;
}

type deployed = {
  request : Request.t;
  strategy : Strategy.t;
  outcome : deploy_outcome;
  attempts : attempt list;
}

type counts = {
  requests : int;
  satisfied : int;
  alternatives : int;
  workforce_limited : int;
  no_alternative : int;
}

type lineage = { triage_seconds : float; deploy_seconds : float }

type report = {
  epoch : int;
  aggregate : Aggregator.report;
  counts : counts;
  deployed : deployed list;
  lineage : lineage;
}

type error =
  [ `Empty_catalog
  | `Invalid_config of string
  | `Invalid_request of string
  | `Catalog of string
  | `Session_closed ]

let error_message = function
  | `Empty_catalog -> "the strategy catalog is empty"
  | `Invalid_config message -> Printf.sprintf "invalid engine configuration: %s" message
  | `Invalid_request message -> Printf.sprintf "invalid request batch: %s" message
  | `Catalog message -> Printf.sprintf "failed to load catalog: %s" message
  | `Session_closed -> "the engine session is closed"

let counts_of_report (aggregate : Aggregator.report) =
  Array.fold_left
    (fun counts (_, outcome) ->
      let counts = { counts with requests = counts.requests + 1 } in
      match (outcome : Aggregator.request_outcome) with
      | Aggregator.Satisfied _ -> { counts with satisfied = counts.satisfied + 1 }
      | Aggregator.Alternative _ -> { counts with alternatives = counts.alternatives + 1 }
      | Aggregator.Workforce_limited ->
          { counts with workforce_limited = counts.workforce_limited + 1 }
      | Aggregator.No_alternative ->
          { counts with no_alternative = counts.no_alternative + 1 })
    { requests = 0; satisfied = 0; alternatives = 0; workforce_limited = 0; no_alternative = 0 }
    aggregate.Aggregator.outcomes

let load_catalog ~path =
  match Result.bind (Model.Codec.load ~path) Model.Codec.catalog_of_json with
  | Ok strategies -> Ok strategies
  | Error message -> Error (`Catalog message)

let validate_requests requests =
  let ids = Hashtbl.create (Array.length requests) in
  let duplicate =
    Array.find_opt
      (fun d ->
        let id = d.Deployment.id in
        if Hashtbl.mem ids id then true
        else begin
          Hashtbl.add ids id ();
          false
        end)
      requests
  in
  match duplicate with
  | Some d ->
      Error
        (`Invalid_request
          (Printf.sprintf "duplicate request id %d (%s)" d.Deployment.id
             d.Deployment.label))
  | None -> Ok ()

let validate config ~strategies ~requests =
  if Array.length strategies = 0 then Error `Empty_catalog
  else if config.domains < 1 then
    Error
      (`Invalid_config
        (Printf.sprintf "domains must be >= 1 (got %d)" config.domains))
  else if
    match config.cache with
    | Some { Triage_cache.capacity } -> capacity < 1
    | None -> false
  then Error (`Invalid_config "cache capacity must be >= 1")
  else
    match validate_requests requests with
    | Error _ as e -> e
    | Ok () -> (
        match config.deploy with
        | Some { capacity; _ } when capacity <= 0 ->
            Error (`Invalid_config "deploy capacity must be positive")
        | Some { resilience; _ } -> (
            match Res.Degrade.validate resilience with
            | Ok () -> Ok ()
            | Error message -> Error (`Invalid_config ("resilience policy: " ^ message)))
        | None -> Ok ())

(* ---- Session state ----

   A session is the persistent half of the engine: the registry, deploy
   rng, circuit breaker and simulated deploy clock live here and survive
   across epochs, so a long-running server amortizes them over millions
   of requests instead of rebuilding them per batch.
   [run] is a create/submit/close round trip, which is what keeps the
   one-shot path bit-identical to a single-epoch session by
   construction. *)

type session = {
  config : config;
  availability : Model.Availability.t;
  strategies : Strategy.t array;
  metrics : Obs.Registry.t;
  mutable rng : Stratrec_util.Rng.t option;
      (* resolved lazily (seed 2020) the first time the deploy stage
         needs it — exactly when the one-shot path created it *)
  breaker : Res.Breaker.t option;
  cache : Triage_cache.t option;  (* the memo's, kept for its stats *)
  memo : Aggregator.memo;
      (* the re-estimated catalog, its ADPaR skyband and the cache,
         bound at the first epoch to [strategies], W, aggregation and
         rule, none of which a session can change *)
  clock : float ref;  (* simulated deploy hours, shared across epochs *)
  mutable epochs : int;
  mutable closed : bool;
}

(* Spawn the shared pool up front, so a domain count the runtime cannot
   provide is a configuration error here instead of an exception at the
   first epoch. *)
let start_pool domains =
  if domains <= 1 then Ok ()
  else
    match Stratrec_par.Pool.shared ~domains with
    | _ -> Ok ()
    | exception Failure message ->
        Error
          (`Invalid_config (Printf.sprintf "cannot start %d domains: %s" domains message))

let create ?(config = default_config) ?rng ~availability ~strategies () =
  match
    Result.bind (validate config ~strategies ~requests:[||]) (fun () ->
        start_pool config.domains)
  with
  | Error _ as e -> e
  | Ok () ->
      let metrics =
        match config.metrics with Some m -> m | None -> Obs.Registry.create ()
      in
      let breaker =
        Option.bind config.deploy (fun deploy ->
            Option.map
              (fun breaker_config -> Res.Breaker.create ~config:breaker_config ())
              deploy.resilience.Res.Degrade.breaker)
      in
      let cache =
        Option.map
          (fun cache_config -> Triage_cache.create ~config:cache_config ~metrics ())
          config.cache
      in
      Ok
        {
          config;
          availability;
          (* The session's own copy: the memo binds to this array's
             identity, so no caller may be able to mutate it. *)
          strategies = Array.copy strategies;
          metrics;
          rng;
          breaker;
          cache;
          memo = Aggregator.memo ?cache ();
          clock = ref 0.;
          epochs = 0;
          closed = false;
        }

let epochs session = session.epochs
let closed session = session.closed
let cache_stats session = Option.map Triage_cache.stats session.cache
let cache_hit_ratio session = Option.map Triage_cache.hit_ratio session.cache
let breaker_state session = Option.map Res.Breaker.state session.breaker
let session_metrics session = Obs.Registry.snapshot session.metrics

(* Deliberately silent: [run] closes the session it opened, and the
   one-shot log output must stay byte-identical to the pre-session
   engine. Daemons log their own shutdown. *)
let close session = session.closed <- true

(* The degradation ladder (DESIGN.md §5d). One satisfied request walks:
   primary attempt -> retries of the same strategy -> fallbacks to the
   remaining recommendations -> ADPaR re-triage at relaxed thresholds ->
   typed rejection. Simulated time (hours on the window axis) advances by
   the retry policy's backoff between attempts; the circuit breaker and
   the per-request deadline budget both read that clock — which belongs
   to the session, so one epoch's backoffs also cool the breaker down
   for the epochs behind it. *)

let resilience_counters =
  [
    "resilience.attempts_total";
    "resilience.retries_total";
    "resilience.fallbacks_total";
    "resilience.retriages_total";
    "resilience.breaker_open_total";
    "resilience.rejections_total";
  ]

let cheapest_first strategies =
  List.sort
    (fun a b ->
      Float.compare a.Strategy.params.Model.Params.cost
        b.Strategy.params.Model.Params.cost)
    strategies

let deploy_satisfied session ~policy ~rng deploy (aggregate : Aggregator.report) satisfied =
  let metrics = session.metrics in
  let trace = session.config.trace in
  let log = session.config.log in
  let count name = Obs.Registry.incr (Obs.Registry.counter metrics name) in
  (* Register the resilience counters up front so every faulted run's
     snapshot carries them, even at 0. *)
  List.iter
    (fun name -> Obs.Registry.incr_by (Obs.Registry.counter metrics name) 0)
    resilience_counters;
  if not (Res.Fault.is_none deploy.faults) then
    Obs.Registry.incr_by (Obs.Registry.counter metrics "faults.injected_total") 0;
  let breaker = session.breaker in
  let trips_before = match breaker with Some b -> Res.Breaker.trips b | None -> 0 in
  let clock = session.clock in
  let deployed =
    List.map
      (fun (request, recommended) ->
        let primary, fallbacks =
          match recommended with
          | strategy :: rest -> (strategy, rest)
          | [] -> assert false (* satisfied requests carry k >= 1 strategies *)
        in
        let deployment = Request.deployment request in
        Obs.Trace.span trace "deploy.request"
          ~attrs:
            [
              ("request", Obs.Trace.Int deployment.Deployment.id);
              ("label", Obs.Trace.String deployment.Deployment.label);
            ]
        @@ fun () ->
        let started = !clock in
        let attempts = ref [] in
        let last_strategy = ref primary in
        let attempt_no = ref 0 in
        let run_attempt rung strategy =
          last_strategy := strategy;
          let at_hours = !clock -. started in
          Obs.Trace.span trace "deploy.attempt"
            ~attrs:
              [
                ("attempt", Obs.Trace.Int !attempt_no);
                ("rung", Obs.Trace.String (Res.Degrade.rung_label rung));
                ("strategy", Obs.Trace.String strategy.Strategy.label);
                ("at_hours", Obs.Trace.Float at_hours);
              ]
          @@ fun () ->
          count "resilience.attempts_total";
          (match rung with
          | Res.Degrade.Primary -> ()
          | Res.Degrade.Retry -> count "resilience.retries_total"
          | Res.Degrade.Fallback -> count "resilience.fallbacks_total"
          | Res.Degrade.Retriage -> count "resilience.retriages_total");
          match breaker with
          | Some b when not (Res.Breaker.allow b ~now_hours:!clock) ->
              attempts := { rung; strategy; at_hours; result = None } :: !attempts;
              Obs.Trace.add_attr trace "outcome" (Obs.Trace.String "breaker_open");
              `Short_circuit
          | _ ->
              let combo =
                match strategy.Strategy.stages with
                | combo :: _ -> combo
                | [] -> assert false (* strategies have at least one stage *)
              in
              let task =
                Sim.Task_spec.make ~kind:deploy.kind ~title:deployment.Deployment.label ()
              in
              let result =
                Sim.Campaign.deploy ~metrics ~faults:deploy.faults deploy.platform rng
                  {
                    Sim.Campaign.task;
                    combo;
                    window = deploy.window;
                    capacity = deploy.capacity;
                    guided = true;
                  }
              in
              attempts := { rung; strategy; at_hours; result = Some result } :: !attempts;
              if result.Sim.Campaign.workers_hired > 0 then begin
                Option.iter Res.Breaker.record_success breaker;
                Obs.Trace.add_attr trace "outcome" (Obs.Trace.String "deployed");
                Obs.Trace.add_attr trace "workers"
                  (Obs.Trace.Int result.Sim.Campaign.workers_hired);
                `Completed result
              end
              else begin
                Option.iter (fun b -> Res.Breaker.record_failure b ~now_hours:!clock) breaker;
                Obs.Trace.add_attr trace "outcome" (Obs.Trace.String "empty");
                `Empty
              end
        in
        (* Walk the ladder: static candidates first, then — if every one of
           them came back empty — a lazily computed re-triage candidate. *)
        let static_candidates =
          ((Res.Degrade.Primary, primary)
           :: List.init (policy.Res.Degrade.retry.Res.Retry.max_attempts - 1) (fun _ ->
                  (Res.Degrade.Retry, primary)))
          @ (if policy.Res.Degrade.fallback then
               List.map (fun s -> (Res.Degrade.Fallback, s)) fallbacks
             else [])
        in
        let rec walk ~retriage_pending = function
          | [] ->
              if retriage_pending then
                match
                  Aggregator.retriage ~metrics ~trace ~relax:policy.Res.Degrade.relax
                    ~strategies:aggregate.Aggregator.strategies deployment
                with
                | Some (_, repair) -> (
                    match cheapest_first repair.Adpar.recommended with
                    | strategy :: _ ->
                        walk ~retriage_pending:false [ (Res.Degrade.Retriage, strategy) ]
                    | [] -> Rejected All_attempts_empty)
                | None -> Rejected All_attempts_empty
              else Rejected All_attempts_empty
          | (rung, strategy) :: rest -> (
              incr attempt_no;
              if !attempt_no > 1 then
                clock :=
                  !clock +. Res.Retry.backoff policy.Res.Degrade.retry rng ~attempt:!attempt_no;
              if
                !attempt_no > 1
                && !clock -. started > policy.Res.Degrade.retry.Res.Retry.deadline_hours
              then Rejected Deadline_exhausted
              else
                match run_attempt rung strategy with
                | `Completed result -> Completed result
                | `Short_circuit -> Rejected Breaker_open
                | `Empty -> walk ~retriage_pending rest)
        in
        let outcome = walk ~retriage_pending:policy.Res.Degrade.retriage static_candidates in
        (match outcome with
        | Completed _ -> Obs.Trace.add_attr trace "outcome" (Obs.Trace.String "deployed")
        | Rejected reason ->
            count "resilience.rejections_total";
            if reason = Breaker_open then count "resilience.breaker_open_total";
            Obs.Log.warn log ~trace "deploy rejected"
              ~fields:
                [
                  ("request", Json.Number (float_of_int deployment.Deployment.id));
                  ("label", Json.String deployment.Deployment.label);
                  ("reason", Json.String (rejection_reason reason));
                  ("attempts", Json.Number (float_of_int (List.length !attempts)));
                ];
            Obs.Trace.add_attr trace "outcome"
              (Obs.Trace.String ("rejected: " ^ rejection_reason reason)));
        Obs.Trace.add_attr trace "attempts" (Obs.Trace.Int (List.length !attempts));
        {
          request;
          strategy = !last_strategy;
          outcome;
          attempts = List.rev !attempts;
        })
      satisfied
  in
  (match breaker with
  | Some b ->
      Obs.Registry.incr_by
        (Obs.Registry.counter metrics "resilience.breaker_trips_total")
        (Res.Breaker.trips b - trips_before)
  | None -> ());
  Obs.Registry.set (Obs.Registry.gauge metrics "resilience.sim_clock_hours") !clock;
  deployed

let submit ?deadline_hours session requests_in =
  if session.closed then Error `Session_closed
  else if Option.fold ~none:false ~some:(fun h -> not (h > 0.)) deadline_hours then
    Error (`Invalid_request "epoch deadline budget must be positive")
  else
    let config = session.config in
    let requests = Array.of_list (List.map Request.deployment requests_in) in
    let by_id = Hashtbl.create (Array.length requests) in
    List.iter (fun r -> Hashtbl.replace by_id (Request.id r) r) requests_in;
    match validate_requests requests with
    | Error _ as e -> e
    | Ok () ->
        let metrics = session.metrics in
        let trace = config.trace in
        let log = config.log in
        (* Profiling stays off the determinism path: Profile.time adds only
           histograms, the pool export only gauges — counters, spans and
           decisions are untouched, so a profiled run's report is
           bit-identical to an unprofiled one at any domain count. *)
        let pool =
          if config.profile && config.domains > 1 then
            Some (Stratrec_par.Pool.shared ~domains:config.domains)
          else None
        in
        Option.iter
          (fun p ->
            Stratrec_par.Pool.reset_stats p;
            Stratrec_par.Pool.set_profiling p true)
          pool;
        let profiled f =
          if config.profile then Obs.Profile.time metrics "engine.run" f else f ()
        in
        let report =
          Obs.Trace.span trace "engine.run"
            ~attrs:
              [
                ("requests", Obs.Trace.Int (Array.length requests));
                ("strategies", Obs.Trace.Int (Array.length session.strategies));
              ]
          @@ fun () ->
          Obs.Log.info log ~trace "engine run started"
            ~fields:
              [
                ("requests", Json.Number (float_of_int (Array.length requests)));
                ( "strategies",
                  Json.Number (float_of_int (Array.length session.strategies)) );
                ("domains", Json.Number (float_of_int config.domains));
                ("deploy", Json.Bool (Option.is_some config.deploy));
              ];
          profiled @@ fun () ->
          Obs.Span.time metrics "engine.run_seconds" (fun () ->
              Obs.Registry.incr (Obs.Registry.counter metrics "engine.runs_total");
              (* Stage stamps for the lineage breakdown, on the registry's
                 own clock (0. on a disabled registry, so the noop path
                 stays allocation-free in the stamps too). *)
              let stage_start = Obs.Registry.now metrics in
              let aggregate =
                Aggregator.run ~config:config.aggregator ~metrics ~trace
                  ~domains:config.domains ~memo:session.memo
                  ~availability:session.availability ~strategies:session.strategies
                  ~requests ()
              in
              (* cache.size / cache.hit_ratio gauges — off the identity
                 path, like the par.* pool gauges *)
              Option.iter Triage_cache.export session.cache;
              let triage_done = Obs.Registry.now metrics in
              let deployed =
                match config.deploy with
                | None -> []
                | Some deploy ->
                    let rng =
                      match session.rng with
                      | Some rng -> rng
                      | None ->
                          let rng = Stratrec_util.Rng.create 2020 in
                          session.rng <- Some rng;
                          rng
                    in
                    (* The epoch's deadline budget (serve wires the tightest
                       remaining admission deadline in here) caps the retry
                       policy's own per-request budget. *)
                    let policy =
                      match deadline_hours with
                      | None -> deploy.resilience
                      | Some budget ->
                          let retry = deploy.resilience.Res.Degrade.retry in
                          {
                            deploy.resilience with
                            Res.Degrade.retry =
                              {
                                retry with
                                Res.Retry.deadline_hours =
                                  Float.min retry.Res.Retry.deadline_hours budget;
                              };
                          }
                    in
                    let satisfied =
                      List.map
                        (fun (d, recommended) ->
                          (Hashtbl.find by_id d.Deployment.id, recommended))
                        (Aggregator.satisfied aggregate)
                    in
                    Obs.Trace.span trace "engine.deploy" (fun () ->
                        deploy_satisfied session ~policy ~rng deploy aggregate satisfied)
              in
              let deploy_done = Obs.Registry.now metrics in
              Obs.Registry.incr_by
                (Obs.Registry.counter metrics "engine.deploys_total")
                (List.length deployed);
              session.epochs <- session.epochs + 1;
              {
                epoch = session.epochs;
                aggregate;
                counts = counts_of_report aggregate;
                deployed;
                lineage =
                  {
                    triage_seconds = Float.max 0. (triage_done -. stage_start);
                    deploy_seconds = Float.max 0. (deploy_done -. triage_done);
                  };
              })
        in
        Option.iter
          (fun p ->
            Stratrec_par.Pool.set_profiling p false;
            Stratrec_par.Pool.export p ~metrics)
          pool;
        Obs.Log.info log ~trace "engine run finished"
          ~fields:
            [
              ("requests", Json.Number (float_of_int report.counts.requests));
              ("satisfied", Json.Number (float_of_int report.counts.satisfied));
              ("alternatives", Json.Number (float_of_int report.counts.alternatives));
              ( "workforce_limited",
                Json.Number (float_of_int report.counts.workforce_limited) );
              ("no_alternative", Json.Number (float_of_int report.counts.no_alternative));
              ("deployed", Json.Number (float_of_int (List.length report.deployed)));
            ];
        Ok report

let run ?(config = default_config) ?rng ~availability ~strategies ~requests () =
  match validate config ~strategies ~requests with
  | Error _ as e -> e
  | Ok () -> (
      match create ~config ?rng ~availability ~strategies () with
      | Error _ as e -> e
      | Ok session ->
          let result =
            submit session (List.map Request.of_deployment (Array.to_list requests))
          in
          close session;
          result)
