module Workforce = Stratrec_model.Workforce
module Strategy = Stratrec_model.Strategy
module Deployment = Stratrec_model.Deployment
module Obs = Stratrec_obs

type assignment = { request : Deployment.t; strategies : Strategy.t list; workforce : float }

type t = {
  aggregation : Workforce.aggregation;
  inversion_rule : [ `Direction_aware | `Paper_equality ];
  catalog : Strategy.t array;
  metrics : Obs.Registry.t;
  trace : Obs.Trace.t;
  mutable pool : float;
  mutable active : assignment list;  (* reverse admission order *)
  mutable admitted : int;
  mutable rejected : int;
}

type decision =
  | Admitted of { strategies : Strategy.t list; workforce : float }
  | Alternative of Adpar.result
  | Workforce_limited
  | No_alternative
  | Duplicate

let count t name = Obs.Registry.incr (Obs.Registry.counter t.metrics name)

let set_pool_gauge t =
  Obs.Registry.set (Obs.Registry.gauge t.metrics "stream.pool_workforce") t.pool

let create ?(config = Aggregator.default_config) ?(metrics = Obs.Registry.noop)
    ?(trace = Obs.Trace.noop) ~strategies ~workforce () =
  if workforce < 0. then invalid_arg "Stream_aggregator.create: negative workforce";
  let t =
    {
      aggregation = config.Aggregator.aggregation;
      inversion_rule = config.Aggregator.inversion_rule;
      catalog = strategies;
      metrics;
      trace;
      pool = workforce;
      active = [];
      admitted = 0;
      rejected = 0;
    }
  in
  set_pool_gauge t;
  t

let requirement t request =
  Workforce.streaming_requirement ~rule:t.inversion_rule t.aggregation ~k:request.Deployment.k
    ~strategies:t.catalog request

let is_active t id = List.exists (fun a -> a.request.Deployment.id = id) t.active

let triage t request =
  t.rejected <- t.rejected + 1;
  count t "stream.rejected_total";
  count t "adpar.fallback_total";
  match Adpar.exact ~metrics:t.metrics ~trace:t.trace ~strategies:t.catalog request with
  | Some result when result.Adpar.distance < 1e-12 -> Workforce_limited
  | Some result -> Alternative result
  | None -> No_alternative

let submit t request =
  count t "stream.submitted_total";
  Obs.Trace.span t.trace "request"
    ~attrs:
      [
        ("request", Obs.Trace.Int request.Deployment.id);
        ("label", Obs.Trace.String request.Deployment.label);
      ]
  @@ fun () ->
  let decide verdict =
    Obs.Trace.decide t.trace ~id:request.Deployment.id ~label:request.Deployment.label
      verdict
  in
  let outcome name = Obs.Trace.add_attr t.trace "outcome" (Obs.Trace.String name) in
  Obs.Span.time t.metrics "stream.submit_seconds" (fun () ->
      if is_active t request.Deployment.id then begin
        count t "stream.duplicate_total";
        outcome "duplicate";
        Duplicate
      end
      else
        match requirement t request with
        | Some { Workforce.workforce; chosen } when workforce <= t.pool +. 1e-12 ->
            let strategies = List.map (fun j -> t.catalog.(j)) chosen in
            t.pool <- Float.max 0. (t.pool -. workforce);
            t.active <- { request; strategies; workforce } :: t.active;
            t.admitted <- t.admitted + 1;
            count t "stream.admitted_total";
            set_pool_gauge t;
            outcome "admitted";
            decide
              (Obs.Trace.Satisfied
                 { workforce; strategies = List.map (fun s -> s.Strategy.label) strategies });
            Admitted { strategies; workforce }
        | Some _ ->
            (* Feasible on parameters and catalog, but not within the pool. *)
            t.rejected <- t.rejected + 1;
            count t "stream.rejected_total";
            count t "stream.workforce_limited_total";
            outcome "workforce_limited";
            decide (Obs.Trace.Rejected { binding = "workforce pool exhausted" });
            Workforce_limited
        | None -> (
            match triage t request with
            | Alternative result as d ->
                outcome "alternative";
                let p = result.Adpar.alternative in
                decide
                  (Obs.Trace.Triaged
                     {
                       quality = p.Stratrec_model.Params.quality;
                       cost = p.Stratrec_model.Params.cost;
                       latency = p.Stratrec_model.Params.latency;
                       distance = result.Adpar.distance;
                     });
                d
            | Workforce_limited as d ->
                outcome "workforce_limited";
                decide (Obs.Trace.Rejected { binding = "workforce pool exhausted" });
                d
            | d ->
                outcome "no_alternative";
                decide (Obs.Trace.Rejected { binding = "no alternative exists" });
                d))

let revoke t id =
  match List.partition (fun a -> a.request.Deployment.id = id) t.active with
  | [], _ -> false
  | revoked, kept ->
      t.active <- kept;
      List.iter (fun a -> t.pool <- t.pool +. a.workforce) revoked;
      count t "stream.revoked_total";
      set_pool_gauge t;
      true

let replenish t amount =
  if amount < 0. then invalid_arg "Stream_aggregator.replenish: negative amount";
  t.pool <- t.pool +. amount;
  count t "stream.replenished_total";
  set_pool_gauge t

let available t = t.pool
let committed t = List.fold_left (fun acc a -> acc +. a.workforce) 0. t.active

let active t =
  List.rev_map (fun a -> (a.request, a.strategies, a.workforce)) t.active

let admitted_count t = t.admitted
let rejected_count t = t.rejected
