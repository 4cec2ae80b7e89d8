(* Resilience primitives: fault-plan algebra and parsing, retry backoff,
   the circuit-breaker state machine, degradation-policy validation, and
   the fault injection sites in Platform.recruit / Campaign.deploy. *)

module Res = Stratrec_resilience
module Fault = Res.Fault
module Retry = Res.Retry
module Breaker = Res.Breaker
module Degrade = Res.Degrade
module Sim = Stratrec_crowdsim
module Rng = Stratrec_util.Rng
module Obs = Stratrec_obs
module Snapshot = Obs.Snapshot

(* Fault plans *)

let test_fault_none () =
  Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
  Alcotest.(check bool) "make () is none" true (Fault.is_none (Fault.make ()));
  Alcotest.(check string) "prints as none" "none" (Fault.to_string Fault.none);
  Alcotest.(check bool) "no outage anywhere" false (Fault.outage Fault.none ~window:0)

let test_fault_roundtrip () =
  let plan =
    Fault.make ~no_show:0.3 ~dropout:0.1 ~straggler:(0.5, 1.8) ~flaky_qualification:0.2
      ~outages:[ 0; 2 ] ()
  in
  (match Fault.of_string (Fault.to_string plan) with
  | Ok plan' -> Alcotest.(check bool) "round trip" true (plan = plan')
  | Error m -> Alcotest.failf "round trip failed: %s" m);
  match Fault.of_string "no-show=0.25,outage=weekend+late-week" with
  | Ok p ->
      Alcotest.(check (float 0.) ) "no-show parsed" 0.25 p.Fault.no_show;
      Alcotest.(check bool) "weekend down" true (Fault.outage p ~window:0);
      Alcotest.(check bool) "early week up" false (Fault.outage p ~window:1);
      Alcotest.(check bool) "late week down" true (Fault.outage p ~window:2)
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_fault_parse_errors () =
  let rejects s =
    match Fault.of_string s with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" s
    | Error m -> Alcotest.(check bool) "error is named" true (String.length m > 0)
  in
  rejects "bogus=1";
  rejects "no-show=1.5";
  rejects "straggler=0.5:0.5";
  rejects "outage=tuesday";
  rejects "no-show"

let test_fault_outage_indices () =
  (* Bare indices parse (they are to_string's rendering of plans built
     with out-of-range-free records), out-of-range ones are rejected
     with the valid range, and [*] composes with further windows. *)
  (match Fault.of_string "outage=0+2" with
  | Ok p ->
      Alcotest.(check bool) "0 and 2 down, 1 up" true
        (Fault.outage p ~window:0 && (not (Fault.outage p ~window:1))
        && Fault.outage p ~window:2)
  | Error m -> Alcotest.failf "numeric indices rejected: %s" m);
  (match Fault.of_string "outage=1+early-week" with
  | Ok p -> Alcotest.(check (list int)) "index and name dedupe" [ 1 ] p.Fault.outages
  | Error m -> Alcotest.failf "mixed spelling rejected: %s" m);
  (match Fault.of_string "outage=3" with
  | Ok _ -> Alcotest.fail "out-of-range index accepted"
  | Error m ->
      Alcotest.(check string) "range named" "outage window index 3 outside [0, 2]" m);
  (match Fault.of_string "outage=-1" with
  | Ok _ -> Alcotest.fail "negative index accepted"
  | Error _ -> ());
  (* '*' must not swallow the windows (or the errors) after it. *)
  (match Fault.of_string "outage=*+bogus" with
  | Ok _ -> Alcotest.fail "'*' swallowed a bad window"
  | Error _ -> ());
  match Fault.of_string "outage=*+weekend" with
  | Ok p -> Alcotest.(check (list int)) "'*' plus a name" [ 0; 1; 2 ] p.Fault.outages
  | Error m -> Alcotest.failf "'*'+name rejected: %s" m

let prop_fault_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Fault.of_string (to_string plan) = Ok plan"
    QCheck.small_int
    (fun seed ->
      let plan = Fault.random (Rng.create seed) in
      match Fault.of_string (Fault.to_string plan) with
      | Ok plan' -> plan = plan'
      | Error _ -> false)

let test_fault_combine () =
  let a = Fault.make ~no_show:0.3 ~outages:[ 0 ] () in
  let b = Fault.make ~no_show:0.1 ~dropout:0.4 ~outages:[ 1 ] () in
  let c = Fault.combine a b in
  Alcotest.(check (float 0.)) "max no-show wins" 0.3 c.Fault.no_show;
  Alcotest.(check (float 0.)) "dropout carried" 0.4 c.Fault.dropout;
  Alcotest.(check bool) "outage union" true
    (Fault.outage c ~window:0 && Fault.outage c ~window:1 && not (Fault.outage c ~window:2));
  Alcotest.(check bool) "none is identity" true (Fault.combine Fault.none a = a)

let test_fault_validation () =
  let raises f =
    match f () with
    | (_ : Fault.t) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  raises (fun () -> Fault.make ~no_show:1.2 ());
  raises (fun () -> Fault.make ~straggler:(0.5, 0.9) ());
  raises (fun () -> Fault.make ~outages:[ 5 ] ())

let test_fault_random_deterministic () =
  let plan seed = Fault.random (Rng.create seed) in
  Alcotest.(check bool) "same seed, same plan" true (plan 42 = plan 42);
  (* Unvalidated constructions out of [random] must still pass [make]'s
     ranges — spot-check a spread of seeds. *)
  for seed = 0 to 49 do
    let p = plan seed in
    Alcotest.(check bool) "probabilities in range" true
      (p.Fault.no_show >= 0. && p.Fault.no_show <= 1. && p.Fault.straggler_factor >= 1.)
  done

(* Retry backoff *)

let test_backoff_schedule () =
  let policy = Retry.make ~max_attempts:4 ~backoff_hours:6. ~multiplier:2. ~jitter:0. () in
  let rng = Rng.create 1 in
  Alcotest.(check (float 0.)) "first attempt free" 0. (Retry.backoff policy rng ~attempt:1);
  Alcotest.(check (float 0.)) "second waits base" 6. (Retry.backoff policy rng ~attempt:2);
  Alcotest.(check (float 0.)) "third doubles" 12. (Retry.backoff policy rng ~attempt:3);
  Alcotest.(check (float 0.)) "fourth doubles again" 24. (Retry.backoff policy rng ~attempt:4)

let test_backoff_jitter_bounds () =
  let policy = Retry.make ~backoff_hours:10. ~multiplier:1. ~jitter:0.5 () in
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let pause = Retry.backoff policy rng ~attempt:2 in
    Alcotest.(check bool) "within jitter band" true (pause >= 5. && pause < 15.)
  done

let test_retry_validation () =
  let raises f =
    match f () with
    | (_ : Retry.policy) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  raises (fun () -> Retry.make ~max_attempts:0 ());
  raises (fun () -> Retry.make ~multiplier:0.5 ());
  raises (fun () -> Retry.make ~jitter:1.5 ());
  Alcotest.check_raises "attempt < 1"
    (Invalid_argument "Retry.backoff: attempt must be >= 1") (fun () ->
      ignore (Retry.backoff Retry.default (Rng.create 1) ~attempt:0))

(* Circuit breaker *)

let test_breaker_trips_and_recovers () =
  let b = Breaker.create ~config:{ Breaker.failure_threshold = 2; cooldown_hours = 10.; half_open_probes = 1 } () in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "closed allows" true (Breaker.allow b ~now_hours:0.);
  Breaker.record_failure b ~now_hours:0.;
  Alcotest.(check bool) "one failure stays closed" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now_hours:1.;
  Alcotest.(check bool) "threshold opens" true (Breaker.state b = Breaker.Open);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check bool) "open refuses before cooldown" false (Breaker.allow b ~now_hours:5.);
  Alcotest.(check bool) "half-opens after cooldown" true (Breaker.allow b ~now_hours:12.);
  Alcotest.(check bool) "now half-open" true (Breaker.state b = Breaker.Half_open);
  Alcotest.(check bool) "probe budget spent" false (Breaker.allow b ~now_hours:12.);
  Breaker.record_success b;
  Alcotest.(check bool) "success closes" true (Breaker.state b = Breaker.Closed);
  (* Failure while half-open re-opens and restarts the cooldown. *)
  Breaker.record_failure b ~now_hours:13.;
  Breaker.record_failure b ~now_hours:14.;
  Alcotest.(check bool) "re-opened" true (Breaker.state b = Breaker.Open);
  ignore (Breaker.allow b ~now_hours:30.);
  Breaker.record_failure b ~now_hours:30.;
  Alcotest.(check bool) "half-open failure re-trips" true (Breaker.state b = Breaker.Open);
  Alcotest.(check int) "three trips" 3 (Breaker.trips b)

let test_breaker_success_resets_count () =
  let b = Breaker.create ~config:{ Breaker.failure_threshold = 2; cooldown_hours = 1.; half_open_probes = 1 } () in
  Breaker.record_failure b ~now_hours:0.;
  Breaker.record_success b;
  Breaker.record_failure b ~now_hours:1.;
  Alcotest.(check bool) "count was reset" true (Breaker.state b = Breaker.Closed)

(* Degradation policy *)

let test_degrade_validate () =
  Alcotest.(check bool) "default valid" true (Degrade.validate Degrade.default = Ok ());
  Alcotest.(check bool) "resilient valid" true (Degrade.validate Degrade.resilient = Ok ());
  let invalid field policy =
    match Degrade.validate policy with
    | Error m -> Alcotest.(check bool) (field ^ " named") true (String.length m > 0)
    | Ok () -> Alcotest.failf "expected %s to be rejected" field
  in
  invalid "max_attempts"
    { Degrade.default with Degrade.retry = { Degrade.default.Degrade.retry with Retry.max_attempts = 0 } };
  invalid "relax" { Degrade.default with Degrade.relax = 2. };
  invalid "breaker threshold"
    { Degrade.default with Degrade.breaker = Some { Breaker.default_config with Breaker.failure_threshold = 0 } }

let test_with_retries () =
  let p = Degrade.with_retries Degrade.default 3 in
  Alcotest.(check int) "n retries = n+1 attempts" 4 p.Degrade.retry.Retry.max_attempts;
  Alcotest.check_raises "negative" (Invalid_argument "Degrade.with_retries: negative retry count")
    (fun () -> ignore (Degrade.with_retries Degrade.default (-1)))

(* Injection sites *)

let recruit ?metrics ?faults platform rng =
  Sim.Platform.recruit ?metrics ?faults platform rng
    ~kind:Sim.Task_spec.Sentence_translation ~window:Sim.Window.Early_week ~capacity:5

let test_platform_outage () =
  let rng = Rng.create 3 in
  let platform = Sim.Platform.create rng ~population:100 in
  let metrics = Obs.Registry.create () in
  let faults = Fault.make ~outages:[ Sim.Window.index Sim.Window.Early_week ] () in
  let r = recruit ~metrics ~faults platform rng in
  Alcotest.(check int) "nobody hired during outage" 0 (List.length r.Sim.Platform.hired);
  Alcotest.(check (float 0.)) "availability collapses" 0. r.Sim.Platform.availability;
  let snap = Obs.Registry.snapshot metrics in
  Alcotest.(check int) "one outage injection" 1 (Snapshot.counter_value snap "faults.outage_total");
  Alcotest.(check int) "injected total agrees" 1 (Snapshot.counter_value snap "faults.injected_total");
  (* Other windows are unaffected by this plan. *)
  let r' =
    Sim.Platform.recruit ~faults platform rng ~kind:Sim.Task_spec.Sentence_translation
      ~window:Sim.Window.Weekend ~capacity:5
  in
  Alcotest.(check bool) "other window recruits" true (List.length r'.Sim.Platform.hired > 0)

let test_platform_no_show () =
  let rng = Rng.create 3 in
  let platform = Sim.Platform.create rng ~population:100 in
  let metrics = Obs.Registry.create () in
  let everyone = Fault.make ~no_show:1. () in
  let r = recruit ~metrics ~faults:everyone platform rng in
  Alcotest.(check int) "everyone no-shows" 0 (List.length r.Sim.Platform.hired);
  let snap = Obs.Registry.snapshot metrics in
  Alcotest.(check bool) "no-shows counted" true
    (Snapshot.counter_value snap "faults.no_show_total" > 0)

let test_platform_flaky_qualification () =
  let rng = Rng.create 3 in
  let platform = Sim.Platform.create rng ~population:100 in
  let metrics = Obs.Registry.create () in
  let flaky = Fault.make ~flaky_qualification:1. () in
  let r = recruit ~metrics ~faults:flaky platform rng in
  Alcotest.(check int) "grader rejects the whole pool" 0 (List.length r.Sim.Platform.hired);
  let snap = Obs.Registry.snapshot metrics in
  Alcotest.(check bool) "rejections counted" true
    (Snapshot.counter_value snap "faults.flaky_qualification_total" > 0)

let deployment capacity =
  {
    Sim.Campaign.task = Sim.Task_spec.make ~kind:Sim.Task_spec.Sentence_translation ~title:"t" ();
    combo = List.hd Stratrec_model.Dimension.all_combos;
    window = Sim.Window.Early_week;
    capacity;
    guided = true;
  }

let test_campaign_dropout () =
  let rng = Rng.create 5 in
  let platform = Sim.Platform.create rng ~population:100 in
  let metrics = Obs.Registry.create () in
  let faults = Fault.make ~dropout:1. () in
  let r = Sim.Campaign.deploy ~metrics ~faults platform rng (deployment 5) in
  Alcotest.(check int) "everyone drops out" 0 r.Sim.Campaign.workers_hired;
  Alcotest.(check (float 0.)) "nobody paid" 0. r.Sim.Campaign.dollars_spent;
  Alcotest.(check (float 0.)) "window expired" 1. r.Sim.Campaign.measured.Stratrec_model.Params.latency;
  let snap = Obs.Registry.snapshot metrics in
  Alcotest.(check bool) "dropouts counted" true
    (Snapshot.counter_value snap "faults.dropout_total" > 0);
  Alcotest.(check int) "dropped workers are not assignments" 0
    (Snapshot.counter_value snap "campaign.worker_assignments_total");
  Alcotest.(check int) "counts as an empty deployment" 1
    (Snapshot.counter_value snap "campaign.empty_deployments_total")

let test_campaign_straggler () =
  (* A certain straggler with a huge factor pins latency at the clamp. *)
  let rng = Rng.create 5 in
  let platform = Sim.Platform.create rng ~population:100 in
  let faults = Fault.make ~straggler:(1., 3.) () in
  let r = Sim.Campaign.deploy ~faults platform rng (deployment 5) in
  Alcotest.(check bool) "hired someone" true (r.Sim.Campaign.workers_hired > 0);
  Alcotest.(check bool) "latency inflated to the clamp" true
    (r.Sim.Campaign.measured.Stratrec_model.Params.latency >= 0.99)

let test_campaign_fault_determinism () =
  let faults = Fault.make ~no_show:0.3 ~dropout:0.2 ~straggler:(0.4, 1.7) () in
  let run () =
    let rng = Rng.create 11 in
    let platform = Sim.Platform.create rng ~population:80 in
    Sim.Campaign.replicate ~faults platform rng (deployment 5) ~times:4
    |> List.map (fun r ->
           ( r.Sim.Campaign.workers_hired,
             Printf.sprintf "%h" r.Sim.Campaign.measured.Stratrec_model.Params.latency ))
  in
  Alcotest.(check bool) "replicates bit-identical across runs" true (run () = run ())

let test_replicate_threads_metrics () =
  (* replicate must thread metrics/faults into every replicate, not deploy
     bare. *)
  let rng = Rng.create 9 in
  let platform = Sim.Platform.create rng ~population:100 in
  let metrics = Obs.Registry.create () in
  let results =
    Sim.Campaign.replicate ~metrics ~faults:Fault.none platform rng (deployment 5) ~times:3
  in
  let hired = List.fold_left (fun acc r -> acc + r.Sim.Campaign.workers_hired) 0 results in
  let snap = Obs.Registry.snapshot metrics in
  Alcotest.(check int) "every replicate metered" 3
    (Snapshot.counter_value snap "campaign.hits_deployed_total");
  Alcotest.(check int) "every hire metered" hired
    (Snapshot.counter_value snap "campaign.worker_assignments_total")

(* Brownout: the serving-side load-shedding ladder — a pure hysteresis
   state machine over queue saturation and window p99. *)

module Brownout = Res.Brownout

let ladder ?(config = Brownout.default) () =
  match Brownout.create config with
  | Ok t -> t
  | Error m -> Alcotest.failf "create failed: %s" m

let test_brownout_validate () =
  Alcotest.(check bool) "default validates" true (Brownout.validate Brownout.default = Ok ());
  let rejects config =
    match Brownout.validate config with
    | Error m -> Alcotest.(check bool) "error named" true (String.length m > 0)
    | Ok () -> Alcotest.fail "expected a validation error"
  in
  rejects { Brownout.default with saturation_high = 0. };
  rejects { Brownout.default with saturation_high = 1.5 };
  rejects { Brownout.default with saturation_low = 0.9 };
  rejects { Brownout.default with saturation_low = -0.1 };
  rejects { Brownout.default with p99_high = -1. };
  rejects { Brownout.default with p99_high = 1.; p99_low = 1. };
  match Brownout.create { Brownout.default with saturation_high = 0. } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "create must validate"

let test_brownout_escalates_one_rung_per_evaluate () =
  let t = ladder () in
  Alcotest.(check int) "starts at normal service" 0 (Brownout.rung t);
  (match Brownout.evaluate t ~saturation:0.9 ~p99:0. with
  | Brownout.Escalated { from_; to_; reason } ->
      Alcotest.(check int) "from 0" 0 from_;
      Alcotest.(check int) "to 1" 1 to_;
      Alcotest.(check string) "saturation named" "queue-saturation" reason
  | _ -> Alcotest.fail "expected escalation");
  ignore (Brownout.evaluate t ~saturation:1.0 ~p99:0.);
  ignore (Brownout.evaluate t ~saturation:1.0 ~p99:0.);
  Alcotest.(check int) "one rung per evaluate, up to the cap" 3 (Brownout.rung t);
  (match Brownout.evaluate t ~saturation:1.0 ~p99:0. with
  | Brownout.Steady -> ()
  | _ -> Alcotest.fail "at the top rung, sustained pressure is steady");
  Alcotest.(check int) "capped at rungs" 3 (Brownout.rung t)

let test_brownout_hysteresis () =
  let t = ladder () in
  ignore (Brownout.evaluate t ~saturation:0.9 ~p99:0.);
  Alcotest.(check int) "escalated" 1 (Brownout.rung t);
  (* the dead zone between low and high moves nothing, either way *)
  (match Brownout.evaluate t ~saturation:0.7 ~p99:0. with
  | Brownout.Steady -> ()
  | _ -> Alcotest.fail "mid-zone pressure must not move the ladder");
  Alcotest.(check int) "held" 1 (Brownout.rung t);
  (match Brownout.evaluate t ~saturation:0.4 ~p99:0. with
  | Brownout.Recovered { from_; to_ } ->
      Alcotest.(check int) "from 1" 1 from_;
      Alcotest.(check int) "to 0" 0 to_
  | _ -> Alcotest.fail "expected recovery");
  match Brownout.evaluate t ~saturation:0.0 ~p99:0. with
  | Brownout.Steady -> Alcotest.(check int) "floor is rung 0" 0 (Brownout.rung t)
  | _ -> Alcotest.fail "rung 0 with no pressure is steady"

let test_brownout_p99_signal () =
  let config =
    { Brownout.default with p99_high = 2.; p99_low = 0.5 }
  in
  let t = ladder ~config () in
  (match Brownout.evaluate t ~saturation:0.1 ~p99:3. with
  | Brownout.Escalated { reason; _ } ->
      Alcotest.(check string) "latency named" "window-p99" reason
  | _ -> Alcotest.fail "expected a p99 escalation");
  (* recovery needs every enabled signal back below its low threshold *)
  (match Brownout.evaluate t ~saturation:0.1 ~p99:1. with
  | Brownout.Steady -> ()
  | _ -> Alcotest.fail "p99 above its low threshold must hold the rung");
  (match Brownout.evaluate t ~saturation:0.6 ~p99:0.1 with
  | Brownout.Steady -> ()
  | _ -> Alcotest.fail "saturation above its low threshold must hold the rung");
  match Brownout.evaluate t ~saturation:0.1 ~p99:0.1 with
  | Brownout.Recovered _ -> Alcotest.(check int) "recovered" 0 (Brownout.rung t)
  | _ -> Alcotest.fail "expected recovery once both signals clear"

let () =
  Alcotest.run "resilience"
    [
      ( "fault",
        [
          Alcotest.test_case "none" `Quick test_fault_none;
          Alcotest.test_case "round trip" `Quick test_fault_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_fault_parse_errors;
          Alcotest.test_case "outage indices" `Quick test_fault_outage_indices;
          Tq.to_alcotest prop_fault_roundtrip;
          Alcotest.test_case "combine" `Quick test_fault_combine;
          Alcotest.test_case "validation" `Quick test_fault_validation;
          Alcotest.test_case "random deterministic" `Quick test_fault_random_deterministic;
        ] );
      ( "retry",
        [
          Alcotest.test_case "schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter_bounds;
          Alcotest.test_case "validation" `Quick test_retry_validation;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips and recovers" `Quick test_breaker_trips_and_recovers;
          Alcotest.test_case "success resets count" `Quick test_breaker_success_resets_count;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "validate" `Quick test_degrade_validate;
          Alcotest.test_case "with_retries" `Quick test_with_retries;
        ] );
      ( "brownout",
        [
          Alcotest.test_case "validate" `Quick test_brownout_validate;
          Alcotest.test_case "escalates one rung per evaluate" `Quick
            test_brownout_escalates_one_rung_per_evaluate;
          Alcotest.test_case "hysteresis dead zone" `Quick test_brownout_hysteresis;
          Alcotest.test_case "p99 signal and joint recovery" `Quick test_brownout_p99_signal;
        ] );
      ( "injection",
        [
          Alcotest.test_case "platform outage" `Quick test_platform_outage;
          Alcotest.test_case "platform no-show" `Quick test_platform_no_show;
          Alcotest.test_case "flaky qualification" `Quick test_platform_flaky_qualification;
          Alcotest.test_case "campaign dropout" `Quick test_campaign_dropout;
          Alcotest.test_case "campaign straggler" `Quick test_campaign_straggler;
          Alcotest.test_case "fault determinism" `Quick test_campaign_fault_determinism;
          Alcotest.test_case "replicate threads metrics" `Quick test_replicate_threads_metrics;
        ] );
    ]
