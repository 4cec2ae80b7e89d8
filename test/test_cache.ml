(* The triage cache (lib/core/triage_cache) and its bit-identity
   contract: a cached Engine session must be observationally
   indistinguishable from an uncached one — rendered reports, per-epoch
   decisions, counters (minus the cache.* instruments themselves) and
   the span tree — at any domain count and under eviction pressure. *)

module Model = Stratrec_model
module Params = Model.Params
module Deployment = Model.Deployment
module W = Model.Workforce
module Obs = Stratrec_obs
module Snapshot = Obs.Snapshot
module Rng = Stratrec_util.Rng
module Engine = Stratrec.Engine
module Request = Stratrec.Request
module Aggregator = Stratrec.Aggregator
module C = Stratrec.Triage_cache

(* --- policy codec --- *)

let test_policy_codec () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "off" true (ok (C.policy_of_string "off") = None);
  Alcotest.(check bool) "0" true (ok (C.policy_of_string "0") = None);
  Alcotest.(check bool) "none" true (ok (C.policy_of_string "none") = None);
  Alcotest.(check bool) "on" true (ok (C.policy_of_string "on") = Some C.default_config);
  Alcotest.(check bool) "capacity" true
    (ok (C.policy_of_string "128") = Some { C.capacity = 128 });
  Alcotest.(check string) "print off" "off" (C.policy_to_string None);
  Alcotest.(check string) "print capacity" "128"
    (C.policy_to_string (Some { C.capacity = 128 }));
  (* round-trip through the printed spelling *)
  List.iter
    (fun policy ->
      Alcotest.(check bool) "round-trip" true
        (ok (C.policy_of_string (C.policy_to_string policy)) = policy))
    [ None; Some C.default_config; Some { C.capacity = 7 } ];
  List.iter
    (fun bad ->
      match C.policy_of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "-3"; "abc"; "1.5"; "" ]

(* --- LRU / quantization unit tests --- *)

let cache ?(capacity = 4) () =
  let metrics = Obs.Registry.create () in
  (C.create ~config:{ C.capacity } ~metrics (), metrics)

let p q = Params.make ~quality:q ~cost:0.2 ~latency:0.3

(* A stored ADPaR answer, told apart from others by its sweep count. *)
let answer events =
  {
    Stratrec.Adpar.result = None;
    k = 2;
    catalog_size = 12;
    sweep_events = events;
    prune_cutoffs = 0;
    search_seconds = 0.;
  }

let counter metrics name =
  Snapshot.counter_value (Obs.Registry.snapshot metrics) name

let test_hit_miss_and_counters () =
  let t, metrics = cache () in
  (* registered at 0 before the first probe *)
  Alcotest.(check int) "hits start 0" 0 (counter metrics "cache.hits_total");
  Alcotest.(check int) "misses start 0" 0 (counter metrics "cache.misses_total");
  Alcotest.(check bool) "cold miss" true (C.find t ~params:(p 0.5) ~k:2 = None);
  C.store t ~params:(p 0.5) ~k:2 (answer 4);
  Alcotest.(check bool) "hit" true (C.find t ~params:(p 0.5) ~k:2 = Some (answer 4));
  (* k participates in the key *)
  Alcotest.(check bool) "other k misses" true (C.find t ~params:(p 0.5) ~k:3 = None);
  let s = C.stats t in
  Alcotest.(check int) "hits" 1 s.C.hits;
  Alcotest.(check int) "misses" 2 s.C.misses;
  Alcotest.(check int) "size" 1 s.C.size;
  Alcotest.(check int) "hits counter" 1 (counter metrics "cache.hits_total");
  Alcotest.(check int) "misses counter" 2 (counter metrics "cache.misses_total");
  Alcotest.(check (float 1e-9)) "hit ratio" (1. /. 3.) (C.hit_ratio t)

let test_quantization_guard () =
  let t, _ = cache () in
  C.store t ~params:(p 0.5) ~k:2 (answer 4);
  (* a sub-quantum perturbation lands in the same bucket, but the
     exact-match guard turns the collision into a miss, never a wrong
     answer *)
  let nearby = p (0.5 +. (C.quantum /. 4.)) in
  Alcotest.(check bool) "same bucket" true
    (Float.round (0.5 /. C.quantum)
    = Float.round ((0.5 +. (C.quantum /. 4.)) /. C.quantum));
  Alcotest.(check bool) "collision is a miss" true (C.find t ~params:nearby ~k:2 = None);
  Alcotest.(check bool) "exact params still hit" true
    (C.find t ~params:(p 0.5) ~k:2 = Some (answer 4))

let test_lru_eviction () =
  let t, metrics = cache ~capacity:2 () in
  C.store t ~params:(p 0.1) ~k:1 (answer 1);
  C.store t ~params:(p 0.2) ~k:1 (answer 2);
  (* touch 0.1 so 0.2 becomes the LRU victim *)
  Alcotest.(check bool) "touch" true (C.find t ~params:(p 0.1) ~k:1 <> None);
  C.store t ~params:(p 0.3) ~k:1 (answer 3);
  Alcotest.(check int) "evicted one" 1 (counter metrics "cache.evictions_total");
  Alcotest.(check bool) "victim was the LRU entry" true (C.find t ~params:(p 0.2) ~k:1 = None);
  Alcotest.(check bool) "touched entry survives" true
    (C.find t ~params:(p 0.1) ~k:1 = Some (answer 1));
  Alcotest.(check bool) "newest survives" true (C.find t ~params:(p 0.3) ~k:1 = Some (answer 3));
  (* re-storing an existing key replaces in place, no eviction *)
  C.store t ~params:(p 0.3) ~k:1 (answer 9);
  Alcotest.(check int) "replace does not evict" 1 (counter metrics "cache.evictions_total");
  Alcotest.(check bool) "replaced value" true (C.find t ~params:(p 0.3) ~k:1 = Some (answer 9))

(* --- cached Engine.submit = uncached Engine.submit (bit-identity) --- *)

(* Everything deterministic a session produces: per-epoch rendered
   aggregates and decision records, the cumulative counters and
   histogram observation counts after each epoch (timing values are
   clock readings), and the span tree with ids and attributes. The
   cache.* instruments are the documented exception — the only
   observable difference a cache may introduce. *)
let cache_metric name =
  String.length name >= 6 && String.sub name 0 6 = "cache."

let snapshot_fingerprint snapshot =
  List.filter_map
    (fun ({ Snapshot.name; value; _ } as entry) ->
      if cache_metric name then None
      else
        let series = Snapshot.series_name entry in
        match value with
        | Snapshot.Counter n -> Some (Printf.sprintf "%s=%d" series n)
        | Snapshot.Gauge _ -> None (* par.* utilization etc.: clock-derived *)
        | Snapshot.Histogram h -> Some (Printf.sprintf "%s#%d" series h.Snapshot.count))
    snapshot

let decision_fingerprint (d : Obs.Trace.decision) =
  Printf.sprintf "%d %s %s" d.Obs.Trace.request_id d.Obs.Trace.label
    (match d.Obs.Trace.verdict with
    | Obs.Trace.Satisfied { workforce; strategies } ->
        Printf.sprintf "satisfied %h [%s]" workforce (String.concat ";" strategies)
    | Obs.Trace.Triaged { quality; cost; latency; distance } ->
        Printf.sprintf "triaged %h/%h/%h d=%h" quality cost latency distance
    | Obs.Trace.Rejected { binding } -> "rejected " ^ binding)

(* [snapshot] and [decisions] are the metrics and the trace's decisions
   the epoch left, read right after it; the decisions are cumulative. *)
let report_fingerprint (report : Engine.report) snapshot decisions =
  ( Format.asprintf "%a" Aggregator.pp_report report.Engine.aggregate,
    List.map decision_fingerprint decisions,
    snapshot_fingerprint snapshot )

let session_fingerprint session trace report =
  report_fingerprint report (Engine.session_metrics session) (Obs.Trace.decisions trace)

(* The epoch batch doubles each generated request under a shifted id, so
   even the first epoch carries intra-epoch repeats and later epochs are
   pure replays — the traffic shape the cache exists for. *)
let batch_of requests =
  let base = Array.to_list requests in
  let clone (d : Deployment.t) =
    Deployment.make
      ~id:(d.Deployment.id + 1000)
      ~params:d.Deployment.params ~k:d.Deployment.k ()
  in
  List.map Request.of_deployment (base @ List.map clone base)

let observable ?cache ~domains ~epochs seed m w =
  let rng = Rng.create seed in
  let strategies = Model.Workload.strategies rng ~n:24 ~kind:Model.Workload.Uniform in
  let requests = Model.Workload.requests rng ~m ~k:3 in
  let trace = Obs.Trace.create () in
  let config =
    Engine.with_cache
      (Engine.with_domains (Engine.with_trace Engine.default_config trace) domains)
      cache
  in
  let session =
    match
      Engine.create ~config ~availability:(Model.Availability.certain w) ~strategies ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
  in
  let batch = batch_of requests in
  let reports =
    List.init epochs (fun _ ->
        match Engine.submit session batch with
        | Ok report -> session_fingerprint session trace report
        | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e))
  in
  let counters = snapshot_fingerprint (Engine.session_metrics session) in
  let tree =
    List.map
      (fun n ->
        ( n.Obs.Trace.id,
          n.Obs.Trace.parent,
          n.Obs.Trace.name,
          n.Obs.Trace.depth,
          n.Obs.Trace.attrs ))
      (Obs.Trace.nodes trace)
  in
  let stats = Engine.cache_stats session in
  let triaged =
    Snapshot.counter_value (Engine.session_metrics session) "adpar.fallback_total"
  in
  Engine.close session;
  ((reports, counters, tree), stats, triaged)

let check_identity ?cache ?(require_hits = true) ~domains ~epochs (seed, (m, w)) =
  let baseline, _, triaged = observable ~domains:1 ~epochs seed m w in
  let cached, stats, _ = observable ?cache ~domains ~epochs seed m w in
  let exercised =
    match stats with
    | Some s ->
        (* Only a request forwarded to ADPaR probes the cache, so hits
           are due once the baseline triaged one: every epoch repeats
           the batch. Under eviction pressure a shape can be evicted
           before its repeat arrives, so zero hits is legitimate there —
           the machinery is still exercised through stores and
           evictions. *)
        triaged = 0 || (not require_hits) || s.C.hits > 0
    | None -> Alcotest.fail "expected a cached session"
  in
  baseline = cached && exercised

let gen = QCheck.(pair small_int (pair (int_range 0 14) (float_range 0.2 1.)))

let prop_cached_identical =
  QCheck.Test.make ~count:30 ~name:"cached submit = uncached submit"
    gen
    (check_identity ~cache:C.default_config ~domains:1 ~epochs:3)

let prop_cached_identical_domains =
  QCheck.Test.make ~count:15 ~name:"cached submit = uncached submit under domains=4"
    gen
    (check_identity ~cache:C.default_config ~domains:4 ~epochs:3)

let prop_eviction_pressure =
  QCheck.Test.make ~count:20 ~name:"identity holds under eviction pressure (capacity 2)"
    gen
    (check_identity ~cache:{ C.capacity = 2 } ~require_hits:false ~domains:1 ~epochs:3)

(* A deterministic spot check that the cache demonstrably works: replay
   epochs hit, and only the distinct shapes miss. *)
let test_session_stats () =
  let _, stats, _ = observable ~cache:C.default_config ~domains:1 ~epochs:3 7 6 0.7 in
  let s = Option.get stats in
  Alcotest.(check bool) "hits accumulated" true (s.C.hits > 0);
  Alcotest.(check bool) "misses bounded by distinct shapes" true (s.C.misses <= 6)

(* A request BatchStrat satisfies never reaches ADPaR, so it never
   touches the cache: a session whose every request is satisfied (a
   batch-fit-shaped stream of lenient thresholds) leaves it empty. *)
let test_satisfied_skip_cache () =
  let strategies =
    Model.Workload.strategies (Rng.create 2020) ~n:200 ~kind:Model.Workload.Uniform
  in
  let rng = Rng.create 3 in
  let lenient id =
    Request.of_deployment
      (Deployment.make ~id
         ~params:
           (Params.make
              ~quality:(Rng.uniform rng ~lo:0. ~hi:0.2)
              ~cost:(Rng.uniform rng ~lo:0.9 ~hi:1.)
              ~latency:(Rng.uniform rng ~lo:0.9 ~hi:1.))
         ~k:2 ())
  in
  let session =
    match
      Engine.create
        ~config:(Engine.with_cache Engine.default_config (Some C.default_config))
        ~availability:(Model.Availability.certain 0.75) ~strategies ()
    with
    | Ok session -> session
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
  in
  for epoch = 0 to 2 do
    match Engine.submit session (List.init 8 (fun i -> lenient ((8 * epoch) + i))) with
    | Ok { Engine.counts; _ } ->
        Alcotest.(check int) "every request satisfied" 8 counts.Engine.satisfied
    | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
  done;
  let s = Option.get (Engine.cache_stats session) in
  Engine.close session;
  Alcotest.(check (list int)) "hits, misses, size" [ 0; 0; 0 ]
    [ s.C.hits; s.C.misses; s.C.size ]

(* --- the re-estimated catalog --- *)

(* A catalog, another one and a batch for the memo tests, and the
   re-estimated catalog a run through [memo] matches against. *)
let memo_inputs =
  let rng = Rng.create 5 in
  let strategies = Model.Workload.strategies rng ~n:12 ~kind:Model.Workload.Uniform in
  let other = Model.Workload.strategies rng ~n:12 ~kind:Model.Workload.Uniform in
  (strategies, other, Model.Workload.requests rng ~m:4 ~k:2)

let run_through memo ?(config = Aggregator.default_config) ?(w = 0.7) strategies =
  let _, _, requests = memo_inputs in
  (Aggregator.run ~config ~memo ~availability:(Model.Availability.certain w) ~strategies
     ~requests ())
    .Aggregator.strategies

(* Every run through one memo matches against the very same array,
   re-estimated once at the memo's first run, and the memo's cache keeps
   its entries; the objective is not part of the binding. A session
   holds a memo, cached or not. *)
let test_catalog_memo () =
  let strategies, _, requests = memo_inputs in
  let t = C.create ~metrics:(Obs.Registry.create ()) () in
  let memo = Aggregator.memo ~cache:t () in
  let first = run_through memo strategies in
  Alcotest.(check bool) "same array and W: same re-estimated catalog" true
    (run_through memo strategies == first);
  Alcotest.(check bool) "another objective: same re-estimated catalog" true
    (run_through memo
       ~config:{ Aggregator.default_config with objective = Stratrec.Objective.Payoff }
       strategies
    == first);
  Alcotest.(check bool) "the cache kept its entries and hit" true
    ((C.stats t).C.size > 0 && (C.stats t).C.hits > 0);
  List.iter
    (fun cache ->
      let session =
        match
          Engine.create
            ~config:(Engine.with_cache Engine.default_config cache)
            ~availability:(Model.Availability.certain 0.6) ~strategies ()
        with
        | Ok session -> session
        | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
      in
      let submit () =
        match Engine.submit session (batch_of requests) with
        | Ok report -> report.Engine.aggregate.Aggregator.strategies
        | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
      in
      let before = submit () in
      Alcotest.(check bool) "the session keeps its re-estimated catalog" true
        (submit () == before))
    [ None; Some C.default_config ]

(* A memo binds at its first run to that run's catalog array (by
   identity) and W. A run through it with another is refused rather
   than re-estimated, and leaves the binding as it was. No ADPaR answer
   depends on the aggregation or the inversion rule, so a bound memo
   holding a warm cache serves a run at another one exactly as a fresh
   memo does. *)
let test_memo_binding () =
  let strategies, other, _ = memo_inputs in
  let memo = Aggregator.memo () in
  let first = run_through memo strategies in
  List.iter
    (fun (what, second) ->
      match second () with
      | _ -> Alcotest.failf "a run with %s went through the bound memo" what
      | exception Invalid_argument _ -> ())
    [
      ("another catalog", fun () -> run_through memo other);
      ("an equal copy of the catalog", fun () -> run_through memo (Array.copy strategies));
      ("another W", fun () -> run_through memo ~w:0.6 strategies);
    ];
  Alcotest.(check bool) "the binding stands" true (run_through memo strategies == first);
  let _, _, requests = memo_inputs in
  let outcomes memo config =
    (Aggregator.run ~config ~memo ~availability:(Model.Availability.certain 0.7) ~strategies
       ~requests ())
      .Aggregator.outcomes
  in
  let cache = C.create ~metrics:(Obs.Registry.create ()) () in
  let bound = Aggregator.memo ~cache () in
  ignore (outcomes bound Aggregator.default_config);
  let hits = (C.stats cache).C.hits in
  List.iter
    (fun (what, config) ->
      Alcotest.(check bool) what true
        (outcomes bound config = outcomes (Aggregator.memo ()) config))
    [
      ("another aggregation", { Aggregator.default_config with aggregation = W.Sum_case });
      ( "another inversion rule",
        { Aggregator.default_config with inversion_rule = `Paper_equality } );
    ];
  Alcotest.(check bool) "the warm cache answered them" true ((C.stats cache).C.hits > hits)

(* A session sweeps its catalog's k-skyband in every ADPaR triage. On an
   n = 200 catalog whose skyband is a strict subset, everything a session
   reports is what the full sweep gives: at domains 4 as at 1, cached as
   uncached, and in a first epoch as in Engine.run. Only the sweep counts
   fall below those of stateless full sweeps. *)
let skyband_catalog =
  Model.Workload.strategies (Rng.create 2020) ~n:200 ~kind:Model.Workload.Uniform

let skyband_requests =
  let rng = Rng.create 2021 in
  Array.init 24 (fun id ->
      let params =
        Params.make
          ~quality:(Rng.uniform rng ~lo:0.85 ~hi:1.)
          ~cost:(Rng.uniform rng ~lo:0. ~hi:0.3)
          ~latency:(Rng.uniform rng ~lo:0. ~hi:0.3)
      in
      (* one request above the skyband cap takes the full sweep *)
      let k = if id = 23 then Stratrec.Adpar.skyband_cap + 1 else 1 + (id mod 4) in
      Deployment.make ~id ~params ~k ())

let skyband_epochs ?cache ~domains () =
  let trace = Obs.Trace.create () in
  let config =
    Engine.with_cache
      (Engine.with_domains (Engine.with_trace Engine.default_config trace) domains)
      cache
  in
  match
    Engine.create ~config ~availability:(Model.Availability.certain 0.75)
      ~strategies:skyband_catalog ()
  with
  | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
  | Ok session ->
      let batch = Array.to_list (Array.map Request.of_deployment skyband_requests) in
      let reports =
        List.init 2 (fun _ ->
            match Engine.submit session batch with
            | Ok report ->
                (report, Engine.session_metrics session, Obs.Trace.decisions trace)
            | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e))
      in
      let tree =
        List.map
          (fun n -> (n.Obs.Trace.id, n.Obs.Trace.parent, n.Obs.Trace.name, n.Obs.Trace.attrs))
          (Obs.Trace.nodes trace)
      in
      Engine.close session;
      (reports, tree)

(* ADPaR timings read the session registry's clock on every path: a
   cache miss, a cache hit, an uncached answer and a sharded one. With
   that clock fixed, every recorded duration is 0. *)
let test_fixed_clock () =
  let snapshot ?cache ~domains () =
    let metrics = Obs.Registry.create ~clock:(Fun.const 0.) () in
    let config =
      Engine.with_metrics
        (Engine.with_cache (Engine.with_domains Engine.default_config domains) cache)
        metrics
    in
    match
      Engine.create ~config ~availability:(Model.Availability.certain 0.75)
        ~strategies:skyband_catalog ()
    with
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
    | Ok session ->
        let batch = Array.to_list (Array.map Request.of_deployment skyband_requests) in
        for _ = 1 to 2 do
          match Engine.submit session batch with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
        done;
        let snapshot = Engine.session_metrics session in
        Engine.close session;
        snapshot
  in
  List.iter
    (fun (run, cache, domains) ->
      let snapshot = snapshot ?cache ~domains () in
      Alcotest.(check bool) (run ^ ": ADPaR ran") true
        (Snapshot.histogram_count snapshot "adpar.search_seconds" > 0);
      List.iter
        (fun name ->
          Alcotest.(check (float 0.)) (run ^ ": " ^ name) 0.
            (Snapshot.histogram_sum snapshot name))
        [ "adpar.search_seconds"; "aggregator.triage_seconds" ])
    [
      ("cached", Some C.default_config, 1);
      ("uncached", None, 1);
      ("uncached at 4 domains", None, 4);
    ]

let test_sessions_sweep_skyband () =
  let observed ?cache ~domains () =
    let reports, tree = skyband_epochs ?cache ~domains () in
    ( List.map
        (fun (report, snapshot, decisions) -> report_fingerprint report snapshot decisions)
        reports,
      tree )
  in
  let uncached = observed ~domains:1 () in
  Alcotest.(check bool) "domains=4 = domains=1" true (observed ~domains:4 () = uncached);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "cached = uncached (domains=%d)" domains)
        true
        (observed ~cache:C.default_config ~domains () = uncached))
    [ 1; 4 ];
  let first, first_metrics, first_decisions = List.hd (fst (skyband_epochs ~domains:1 ())) in
  let run_metrics = Obs.Registry.create () and run_trace = Obs.Trace.create () in
  (match
     Engine.run
       ~config:(Engine.with_trace (Engine.with_metrics Engine.default_config run_metrics) run_trace)
       ~availability:(Model.Availability.certain 0.75) ~strategies:skyband_catalog
       ~requests:skyband_requests ()
   with
  | Ok run ->
      Alcotest.(check bool) "submit = run" true
        (report_fingerprint run
           (Obs.Registry.snapshot run_metrics)
           (Obs.Trace.decisions run_trace)
        = report_fingerprint first first_metrics first_decisions)
  | Error e -> Alcotest.failf "run failed: %s" (Engine.error_message e));
  let catalog = first.Engine.aggregate.Aggregator.strategies in
  Alcotest.(check bool) "the skyband is a strict subset" true
    (Stratrec.Adpar.skyband_size (Stratrec.Adpar.skyband catalog) ~k:2 < Array.length catalog);
  (* The stateless full sweep of every request the epoch triaged. *)
  let full = Obs.Registry.create () in
  Array.iter
    (fun (d, outcome) ->
      match outcome with
      | Aggregator.Satisfied _ -> ()
      | Aggregator.Alternative _ | Aggregator.Workforce_limited | Aggregator.No_alternative
        ->
          ignore (Stratrec.Adpar.exact ~metrics:full ~strategies:catalog d))
    first.Engine.aggregate.Aggregator.outcomes;
  let events snapshot = Snapshot.counter_value snapshot "adpar.sweep_events_total" in
  let session = events first_metrics
  and stateless = events (Obs.Registry.snapshot full) in
  Alcotest.(check bool)
    (Printf.sprintf "session sweep events %d below the full sweep's %d" session stateless)
    true
    (session > 0 && session < stateless)

(* The session copies its catalog: mutating the caller's array after
   [create] changes nothing a later epoch reports. *)
let test_session_owns_catalog () =
  let rng = Rng.create 11 in
  let original = Model.Workload.strategies rng ~n:24 ~kind:Model.Workload.Uniform in
  let other = Model.Workload.strategies rng ~n:24 ~kind:Model.Workload.Uniform in
  let first = batch_of (Model.Workload.requests rng ~m:6 ~k:2) in
  let second = batch_of (Model.Workload.requests rng ~m:6 ~k:2) in
  List.iter
    (fun cache ->
      let epochs ?(between = ignore) strategies =
        let trace = Obs.Trace.create () in
        let config = Engine.with_cache (Engine.with_trace Engine.default_config trace) cache in
        match
          Engine.create ~config ~availability:(Model.Availability.certain 0.8) ~strategies ()
        with
        | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
        | Ok session ->
            let submit batch =
              match Engine.submit session batch with
              | Ok report -> session_fingerprint session trace report
              | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
            in
            ignore (submit first);
            between strategies;
            let report = submit second in
            Engine.close session;
            report
      in
      let mutated =
        epochs (Array.copy original) ~between:(fun caller ->
            Array.blit other 0 caller 0 (Array.length caller))
      in
      Alcotest.(check bool) "the mutation would change the report" false
        (epochs other = epochs original);
      Alcotest.(check bool)
        (Printf.sprintf "report of the original catalog (cache %s)"
           (C.policy_to_string cache))
        true
        (mutated = epochs original))
    [ None; Some C.default_config ]

let () =
  Alcotest.run "cache"
    [
      ( "unit",
        [
          Alcotest.test_case "policy codec" `Quick test_policy_codec;
          Alcotest.test_case "hit/miss and counters" `Quick test_hit_miss_and_counters;
          Alcotest.test_case "quantization guard" `Quick test_quantization_guard;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "session stats" `Quick test_session_stats;
          Alcotest.test_case "satisfied requests skip the cache" `Quick
            test_satisfied_skip_cache;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "re-estimation memo binds once" `Quick test_catalog_memo;
          Alcotest.test_case "a bound memo refuses other inputs" `Quick test_memo_binding;
          Alcotest.test_case "session owns its catalog" `Quick test_session_owns_catalog;
          Alcotest.test_case "sessions sweep the skyband" `Quick test_sessions_sweep_skyband;
        ] );
      ("clock", [ Alcotest.test_case "fixed clock times ADPaR at zero" `Quick test_fixed_clock ]);
      ( "identity",
        List.map Tq.to_alcotest
          [ prop_cached_identical; prop_cached_identical_domains; prop_eviction_pressure ] );
    ]
