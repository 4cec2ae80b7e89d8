module Workforce = Stratrec_model.Workforce
module Strategy = Stratrec_model.Strategy
module Deployment = Stratrec_model.Deployment
module Availability = Stratrec_model.Availability
module Obs = Stratrec_obs

type config = {
  objective : Objective.t;
  aggregation : Workforce.aggregation;
  reestimate_parameters : bool;
  inversion_rule : [ `Direction_aware | `Paper_equality ];
}

let default_config =
  {
    objective = Objective.Throughput;
    aggregation = Workforce.Max_case;
    reestimate_parameters = true;
    inversion_rule = `Direction_aware;
  }

type request_outcome =
  | Satisfied of { strategies : Strategy.t list; workforce : float }
  | Alternative of Adpar.result
  | Workforce_limited
  | No_alternative

type report = {
  config : config;
  availability : float;
  strategies : Strategy.t array;
  outcomes : (Deployment.t * request_outcome) array;
  objective_value : float;
  workforce_used : float;
}

let count metrics name = Obs.Registry.incr (Obs.Registry.counter metrics name)

(* Triage of one unsatisfied request from its ADPaR [answer]: the call
   is recorded through [Adpar.record], and everything around it here.
   Without a trace, no span, attribute or decision is built. *)
let triage_request ~metrics ~trace ~requests ~outcomes i answer =
  let d = requests.(i) in
  let traced = Obs.Trace.enabled trace in
  count metrics "adpar.fallback_total";
  let triage = Obs.Span.start metrics "aggregator.triage_seconds" in
  Adpar.record ~metrics ~trace answer;
  (match answer.Adpar.result with
  | Some result when result.Adpar.distance < 1e-12 ->
      (* The parameters already admit k strategies: the request only
         lost out on the workforce budget. *)
      count metrics "aggregator.workforce_limited_total";
      if traced then begin
        Obs.Trace.add_attr trace "outcome" (Obs.Trace.String "workforce_limited");
        Obs.Trace.decide trace ~id:i ~label:d.Deployment.label
          (Obs.Trace.Rejected { binding = "workforce budget exhausted" })
      end;
      outcomes.(i) <- (d, Workforce_limited)
  | Some result ->
      count metrics "aggregator.alternative_total";
      if traced then begin
        Obs.Trace.add_attr trace "outcome" (Obs.Trace.String "alternative");
        let p = result.Adpar.alternative in
        Obs.Trace.decide trace ~id:i ~label:d.Deployment.label
          (Obs.Trace.Triaged
             {
               quality = p.Stratrec_model.Params.quality;
               cost = p.Stratrec_model.Params.cost;
               latency = p.Stratrec_model.Params.latency;
               distance = result.Adpar.distance;
             })
      end;
      outcomes.(i) <- (d, Alternative result)
  | None ->
      count metrics "aggregator.no_alternative_total";
      if traced then begin
        Obs.Trace.add_attr trace "outcome" (Obs.Trace.String "no_alternative");
        Obs.Trace.decide trace ~id:i ~label:d.Deployment.label
          (Obs.Trace.Rejected { binding = "no alternative exists" })
      end;
      outcomes.(i) <- (d, No_alternative));
  ignore (Obs.Span.finish triage)

let triage_with ~metrics ~trace ~requests ~outcomes i answer =
  if Obs.Trace.enabled trace then
    Obs.Trace.span trace "request"
      ~attrs:
        [
          ("request", Obs.Trace.Int i);
          ("label", Obs.Trace.String requests.(i).Deployment.label);
        ]
      (fun () -> triage_request ~metrics ~trace ~requests ~outcomes i answer)
  else triage_request ~metrics ~trace ~requests ~outcomes i answer

(* [f] of every element of [xs], in order, sharded when a pool is up. *)
let map ?pool ~f xs =
  match pool with
  | Some pool when Array.length xs > 1 -> Stratrec_par.Shard.map pool ~f xs
  | Some _ | None -> Array.map f xs

(* [f] of every request of [ds], in order, through [cache] when there is
   one: each request is looked up first and stored back on a miss, and
   the cache is touched only from the calling domain, in request order.
   With a pool, every request is probed first and the misses are
   computed sharded; without one, each request is probed, computed and
   stored in turn, so a repeat later in [ds] already hits. *)
let memoized ?pool ?cache ~f ds =
  let n = Array.length ds in
  match (cache, pool) with
  | None, _ -> map ?pool ~f ds
  | Some c, Some _ when n > 1 ->
      let found =
        Array.map (fun d -> Triage_cache.find c ~params:d.Deployment.params ~k:d.Deployment.k) ds
      in
      let misses =
        Array.of_list (List.filter (fun i -> Option.is_none found.(i)) (List.init n Fun.id))
      in
      let computed = map ?pool ~f:(fun i -> f ds.(i)) misses in
      Array.iteri
        (fun j i ->
          let d = ds.(i) in
          Triage_cache.store c ~params:d.Deployment.params ~k:d.Deployment.k computed.(j);
          found.(i) <- Some computed.(j))
        misses;
      Array.map Option.get found
  | Some c, (Some _ | None) ->
      Array.map
        (fun d ->
          let params = d.Deployment.params and k = d.Deployment.k in
          match Triage_cache.find c ~params ~k with
          | Some v -> v
          | None ->
              let v = f d in
              Triage_cache.store c ~params ~k v;
              v)
        ds

(* What one run matches against: the catalog [given] re-estimated at
   [at] (or as given when [at] is None), and the ADPaR skyband of the
   result, built at the first ADPaR call that needs it. *)
type prepared = {
  given : Strategy.t array;
  at : float option;
  catalog : Strategy.t array;
  mutable skyband : Adpar.skyband option;
}

type memo = { cache : Triage_cache.t option; mutable bound : prepared option }

let memo ?cache () = { cache; bound = None }

(* A memo binds to its first run's catalog and W for good, so neither
   its catalog nor its cache's entries can go stale. The catalog is
   compared by identity, not contents: comparing contents would cost
   what re-estimating does. *)
let prepare memo ~at strategies =
  let fresh () =
    let catalog =
      match at with
      | Some w -> Array.map (fun s -> Strategy.instantiate s ~availability:w) strategies
      | None -> strategies
    in
    { given = strategies; at; catalog; skyband = None }
  in
  match memo with
  | None -> fresh ()
  | Some ({ bound = None; _ } as m) ->
      let p = fresh () in
      m.bound <- Some p;
      p
  | Some { bound = Some p; _ } ->
      if p.given == strategies && Option.equal Float.equal p.at at then p
      else invalid_arg "Aggregator.run: the memo is bound to another catalog or W"

let run ?(config = default_config) ?(metrics = Obs.Registry.noop)
    ?(trace = Obs.Trace.noop) ?(domains = 1) ?memo ~availability ~strategies ~requests () =
  if domains < 1 then invalid_arg "Aggregator.run: domains must be >= 1";
  let pool = if domains > 1 then Some (Stratrec_par.Pool.shared ~domains) else None in
  Obs.Trace.span trace "aggregator.batch"
    ~attrs:
      [
        ("requests", Obs.Trace.Int (Array.length requests));
        ("strategies", Obs.Trace.Int (Array.length strategies));
      ]
  @@ fun () ->
  let batch_span = Obs.Span.start metrics "aggregator.batch_seconds" in
  Obs.Registry.incr (Obs.Registry.counter metrics "aggregator.batches_total");
  Obs.Registry.incr_by
    (Obs.Registry.counter metrics "aggregator.requests_total")
    (Array.length requests);
  let w = Availability.expected availability in
  Obs.Registry.set (Obs.Registry.gauge metrics "aggregator.availability") w;
  (* With a memo, a session re-estimates its catalog once, not every
     epoch, and keeps one skyband for it. *)
  let prepared =
    prepare memo ~at:(if config.reestimate_parameters then Some w else None) strategies
  in
  let strategies = prepared.catalog in
  (* Every request's BatchStrat requirement, by the one catalog scan of
     [Workforce.streaming_requirement]: requests are independent, so
     they are computed sharded when a pool is up, and no path builds a
     matrix. *)
  let requirements =
    map ?pool
      ~f:(fun d ->
        Workforce.streaming_requirement ~rule:config.inversion_rule config.aggregation
          ~k:d.Deployment.k ~strategies d)
      requests
  in
  let batch =
    Batchstrat.select ~metrics ~trace ~objective:config.objective ~available:w ~requests
      requirements
  in
  let outcomes = Array.map (fun d -> (d, No_alternative)) requests in
  let traced = Obs.Trace.enabled trace in
  let satisfy { Batchstrat.request_index; strategy_indices; workforce } =
    let d = requests.(request_index) in
    let recommended = List.map (fun j -> strategies.(j)) strategy_indices in
    if traced then
      Obs.Trace.decide trace ~id:request_index ~label:d.Deployment.label
        (Obs.Trace.Satisfied
           {
             workforce;
             strategies = List.map (fun s -> s.Strategy.label) recommended;
           });
    outcomes.(request_index) <- (d, Satisfied { strategies = recommended; workforce })
  in
  List.iter
    (fun (s : Batchstrat.satisfied) ->
      if traced then
        Obs.Trace.span trace "request"
          ~attrs:
            [
              ("request", Obs.Trace.Int s.request_index);
              ("label", Obs.Trace.String requests.(s.request_index).Deployment.label);
              ("outcome", Obs.Trace.String "satisfied");
            ]
          (fun () -> satisfy s)
      else satisfy s)
    batch.Batchstrat.satisfied;
  Obs.Registry.incr_by
    (Obs.Registry.counter metrics "aggregator.satisfied_total")
    (List.length batch.Batchstrat.satisfied);
  let unsatisfied = Array.of_list batch.Batchstrat.unsatisfied in
  if Array.length unsatisfied > 0 then begin
    (* Only a memo's holder sweeps the skyband, built on this domain in
       the first run of its catalog that triages, before any shard
       starts. *)
    if Option.is_some memo && Option.is_none prepared.skyband then
      prepared.skyband <- Some (Adpar.skyband strategies);
    let skyband = prepared.skyband in
    (* Answers first (cached, or computed sharded, on the session
       registry's clock), then every one recorded in request order on
       this domain, so the counters, span tree, span ids and decisions
       are the same on every path. *)
    let clock () = Obs.Registry.now metrics in
    let answers =
      memoized ?pool
        ?cache:(Option.bind memo (fun m -> m.cache))
        ~f:(fun d -> Adpar.answer ~clock ?skyband ~strategies d)
        (Array.map (Array.get requests) unsatisfied)
    in
    Array.iteri
      (fun slot answer ->
        triage_with ~metrics ~trace ~requests ~outcomes unsatisfied.(slot) answer)
      answers
  end;
  Obs.Registry.set
    (Obs.Registry.gauge metrics "aggregator.workforce_used")
    batch.Batchstrat.workforce_used;
  ignore (Obs.Span.finish batch_span);
  {
    config;
    availability = w;
    strategies;
    outcomes;
    objective_value = batch.Batchstrat.objective_value;
    workforce_used = batch.Batchstrat.workforce_used;
  }

let retriage ?(metrics = Obs.Registry.noop) ?(trace = Obs.Trace.noop) ?(relax = 0.15)
    ~strategies (d : Deployment.t) =
  if not (relax >= 0. && relax <= 1.) then
    invalid_arg "Aggregator.retriage: relax outside [0, 1]";
  Obs.Trace.span trace "aggregator.retriage"
    ~attrs:
      [
        ("request", Obs.Trace.Int d.Deployment.id);
        ("label", Obs.Trace.String d.Deployment.label);
        ("relax", Obs.Trace.Float relax);
      ]
  @@ fun () ->
  Obs.Registry.incr (Obs.Registry.counter metrics "aggregator.retriage_total");
  let p = d.Deployment.params in
  let relaxed =
    Stratrec_model.Params.make
      ~quality:(Float.max 0. (p.Stratrec_model.Params.quality -. relax))
      ~cost:(Float.min 1. (p.Stratrec_model.Params.cost +. relax))
      ~latency:(Float.min 1. (p.Stratrec_model.Params.latency +. relax))
  in
  let d' = { d with Deployment.params = relaxed } in
  match Adpar.exact ~metrics ~trace ~strategies d' with
  | None -> None
  | Some result ->
      Obs.Trace.add_attr trace "distance" (Obs.Trace.Float result.Adpar.distance);
      Some (d', result)

let satisfied report =
  Array.to_list report.outcomes
  |> List.filter_map (function
       | d, Satisfied { strategies; _ } -> Some (d, strategies)
       | _, (Alternative _ | Workforce_limited | No_alternative) -> None)

let alternatives report =
  Array.to_list report.outcomes
  |> List.filter_map (function
       | d, Alternative result -> Some (d, result)
       | _, (Satisfied _ | Workforce_limited | No_alternative) -> None)

let workforce_limited report =
  Array.to_list report.outcomes
  |> List.filter_map (function
       | d, Workforce_limited -> Some d
       | _, (Satisfied _ | Alternative _ | No_alternative) -> None)

let pp_outcome ppf = function
  | Satisfied { strategies; workforce } ->
      Format.fprintf ppf "satisfied (w=%.3f) with [%a]" workforce
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           (fun ppf s -> Format.pp_print_string ppf s.Strategy.label))
        strategies
  | Alternative r ->
      Format.fprintf ppf "alternative %a (distance %.4f)" Stratrec_model.Params.pp
        r.Adpar.alternative r.Adpar.distance
  | Workforce_limited ->
      Format.pp_print_string ppf "parameters fine, but the workforce budget ran out"
  | No_alternative -> Format.pp_print_string ppf "no alternative exists"

let pp_report ppf r =
  Format.fprintf ppf "W=%.3f objective(%a)=%.4f used=%.4f@\n" r.availability Objective.pp
    r.config.objective r.objective_value r.workforce_used;
  Array.iter
    (fun (d, outcome) ->
      Format.fprintf ppf "  %s: %a@\n" d.Deployment.label pp_outcome outcome)
    r.outcomes
