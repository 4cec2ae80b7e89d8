(* The serve subsystem: admission fairness/backpressure/deadlines under
   a simulated clock, protocol robustness under garbage floods, and the
   epoch determinism contract — Engine.submit and the daemon produce
   decisions and counters bit-identical to one-shot Engine.run. *)

module Serve = Stratrec_serve
module Admission = Serve.Admission
module Protocol = Serve.Protocol
module Daemon = Serve.Daemon
module Engine = Stratrec.Engine
module Request = Stratrec.Request
module Aggregator = Stratrec.Aggregator
module Model = Stratrec_model
module Obs = Stratrec_obs
module Snapshot = Obs.Snapshot
module Json = Stratrec_util.Json

(* Admission queue *)

let test_admission_fairness () =
  let q = Admission.create ~capacity:10 () in
  let offer tenant item =
    match Admission.offer q ~now:0. ~tenant item with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unexpected rejection"
  in
  (* tenant a floods first; b and c trickle in after *)
  List.iter (offer "a") [ "a1"; "a2"; "a3"; "a4" ];
  List.iter (offer "b") [ "b1"; "b2" ];
  offer "c" "c1";
  let live, dead = Admission.drain q ~now:1. ~max:5 in
  Alcotest.(check (list string))
    "round-robin across tenants, FIFO within"
    [ "a1"; "b1"; "c1"; "a2"; "b2" ]
    (List.map (fun a -> a.Admission.item) live);
  Alcotest.(check int) "nothing expired" 0 (List.length dead);
  Alcotest.(check int) "rest still queued" 2 (Admission.length q);
  let live, _ = Admission.drain q ~now:2. ~max:5 in
  Alcotest.(check (list string))
    "drained to empty" [ "a3"; "a4" ]
    (List.map (fun a -> a.Admission.item) live);
  Alcotest.(check int) "empty" 0 (Admission.length q)

let test_admission_backpressure () =
  let q = Admission.create ~capacity:2 () in
  let offer item = Admission.offer q ~now:0. ~tenant:"t" item in
  Alcotest.(check bool) "first fits" true (offer "x" = Ok ());
  Alcotest.(check bool) "second fits" true (offer "y" = Ok ());
  Alcotest.(check bool) "third bounces" true (offer "z" = Error `Queue_full);
  Alcotest.(check int) "bound holds" 2 (Admission.length q);
  Alcotest.check_raises "capacity validated"
    (Invalid_argument "Admission.create: capacity must be >= 1 (got 0)") (fun () ->
      ignore (Admission.create ~capacity:0 ()))

let test_admission_deadlines () =
  let q = Admission.create ~capacity:10 () in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "unexpected rejection" in
  ok (Admission.offer q ~now:0. ~tenant:"t" ~deadline_hours:1. "tight");
  ok (Admission.offer q ~now:0. ~tenant:"t" ~deadline_hours:10. "slack");
  ok (Admission.offer q ~now:0. ~tenant:"t" "patient");
  (* two simulated hours later *)
  let live, dead = Admission.drain q ~now:7200. ~max:10 in
  Alcotest.(check (list string))
    "expired separated" [ "tight" ]
    (List.map (fun a -> a.Admission.item) dead);
  (match dead with
  | [ a ] ->
      Alcotest.(check (float 1e-9)) "waited the full two hours" 7200. a.Admission.waited_seconds;
      Alcotest.(check (option (float 0.))) "budget exhausted" (Some 0.) a.Admission.remaining_hours
  | _ -> Alcotest.fail "one expiry expected");
  (match live with
  | [ slack; patient ] ->
      Alcotest.(check (option (float 1e-9)))
        "unspent budget forwarded" (Some 8.) slack.Admission.remaining_hours;
      Alcotest.(check (option (float 0.))) "no deadline, no budget" None
        patient.Admission.remaining_hours
  | _ -> Alcotest.fail "two live expected");
  Alcotest.check_raises "deadline validated"
    (Invalid_argument "Admission.offer: deadline_hours must be positive (got 0)") (fun () ->
      ignore (Admission.offer q ~now:0. ~tenant:"t" ~deadline_hours:0. "bad"))

let test_admission_weighted_fairness () =
  (* weight 2 takes two items per DRR pass, weight 1 takes one *)
  let q =
    Admission.create ~capacity:10
      ~quotas:[ ("a", { Admission.default_quota with weight = 2. }) ]
      ()
  in
  let offer tenant item =
    match Admission.offer q ~now:0. ~tenant item with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unexpected rejection"
  in
  List.iter (offer "a") [ "a1"; "a2"; "a3"; "a4" ];
  List.iter (offer "b") [ "b1"; "b2" ];
  let live, _ = Admission.drain q ~now:1. ~max:6 in
  Alcotest.(check (list string))
    "weight-2 tenant drains twice per pass"
    [ "a1"; "a2"; "b1"; "a3"; "a4"; "b2" ]
    (List.map (fun a -> a.Admission.item) live);
  Alcotest.(check int) "drained to empty" 0 (Admission.length q)

let test_admission_quota_caps () =
  (* max_queued bounds one tenant's waiting share without touching the
     shared capacity; max_in_flight caps its take per drain, keeping
     the surplus queued for the next epoch. *)
  let q =
    Admission.create ~capacity:10
      ~quotas:
        [
          ("a", { Admission.default_quota with max_queued = Some 2 });
          ("b", { Admission.default_quota with max_in_flight = Some 1 });
        ]
      ()
  in
  let ok tenant item =
    match Admission.offer q ~now:0. ~tenant item with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unexpected rejection"
  in
  ok "a" "a1";
  ok "a" "a2";
  (match Admission.offer q ~now:0. ~tenant:"a" "a3" with
  | Error (`Quota_exceeded (queued, limit)) ->
      Alcotest.(check int) "depth reported" 2 queued;
      Alcotest.(check int) "limit reported" 2 limit
  | _ -> Alcotest.fail "expected quota rejection");
  Alcotest.(check int) "tenant depth tracked" 2 (Admission.tenant_depth q ~tenant:"a");
  ok "b" "b1";
  ok "b" "b2";
  let live, _ = Admission.drain q ~now:1. ~max:10 in
  Alcotest.(check (list string))
    "in-flight-capped tenant keeps its surplus queued"
    [ "a1"; "b1"; "a2" ]
    (List.map (fun a -> a.Admission.item) live);
  (* the cap is per drain: the surplus rejoins the next rotation *)
  let live, _ = Admission.drain q ~now:2. ~max:10 in
  Alcotest.(check (list string))
    "surplus drains next epoch" [ "b2" ]
    (List.map (fun a -> a.Admission.item) live);
  (* the drained tenant is free to queue again *)
  ok "a" "a4";
  Alcotest.(check int) "cap released after drain" 1 (Admission.length q)

let test_admission_quota_codec () =
  (match Admission.quota_of_string "tenant=acme;weight=2;max-queued=16;max-in-flight=4" with
  | Ok (tenant, q) ->
      Alcotest.(check string) "tenant" "acme" tenant;
      Alcotest.(check (float 0.)) "weight" 2. q.Admission.weight;
      Alcotest.(check (option int)) "max-queued" (Some 16) q.Admission.max_queued;
      Alcotest.(check (option int)) "max-in-flight" (Some 4) q.Admission.max_in_flight;
      Alcotest.(check string)
        "round-trips" "tenant=acme;weight=2;max-queued=16;max-in-flight=4"
        (Admission.quota_to_string (tenant, q))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Admission.quota_of_string "tenant=t" with
  | Ok (_, q) ->
      Alcotest.(check (float 0.)) "weight defaults to 1" 1. q.Admission.weight;
      Alcotest.(check (option int)) "no queued cap" None q.Admission.max_queued
  | Error e -> Alcotest.failf "minimal spelling failed: %s" e);
  let rejects s =
    match Admission.quota_of_string s with
    | Error m -> Alcotest.(check bool) "error named" true (String.length m > 0)
    | Ok _ -> Alcotest.failf "expected %S to be rejected" s
  in
  rejects "weight=2";
  rejects "tenant=a;weight=0";
  rejects "tenant=a;weight=inf";
  rejects "tenant=a;max-queued=0";
  rejects "tenant=a;max-in-flight=nope";
  rejects "tenant=a;frobnicate=1";
  rejects "tenant=a;weight"

let test_admission_evict_all () =
  let q = Admission.create ~capacity:10 () in
  let ok ?deadline_hours now tenant item =
    match Admission.offer q ~now ~tenant ?deadline_hours item with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unexpected rejection"
  in
  ok 0. "a" "a1";
  ok 1. "b" "b1";
  ok ~deadline_hours:0.0001 2. "a" "a2";
  let evicted = Admission.evict_all q ~now:10. in
  Alcotest.(check (list string))
    "everything leaves in enqueue order, live or not"
    [ "a1"; "b1"; "a2" ]
    (List.map (fun a -> a.Admission.item) evicted);
  Alcotest.(check int) "queue empty afterwards" 0 (Admission.length q);
  let live, _ = Admission.drain q ~now:11. ~max:10 in
  Alcotest.(check int) "nothing left to drain" 0 (List.length live)

(* Protocol *)

let test_protocol_parse () =
  let ok = function Ok c -> c | Error e -> Alcotest.failf "parse failed: %s" e in
  (match ok (Protocol.parse {|{"op":"submit","id":3,"params":"0.9,0.2,0.3","k":2,"tenant":"acme","deadline_hours":24}|}) with
  | Protocol.Submit r ->
      Alcotest.(check int) "id" 3 (Request.id r);
      Alcotest.(check string) "tenant" "acme" (Request.tenant r);
      Alcotest.(check (option (float 0.))) "deadline" (Some 24.) (Request.deadline_hours r)
  | _ -> Alcotest.fail "expected Submit");
  (match ok (Protocol.parse "GET metrics") with
  | Protocol.Metrics -> ()
  | _ -> Alcotest.fail "expected Metrics");
  (match ok (Protocol.parse "get /metrics") with
  | Protocol.Metrics -> ()
  | _ -> Alcotest.fail "expected Metrics (path form)");
  (match ok (Protocol.parse {|{"op":"tick","hours":2.5}|}) with
  | Protocol.Tick h -> Alcotest.(check (float 0.)) "hours" 2.5 h
  | _ -> Alcotest.fail "expected Tick");
  let err input =
    match Protocol.parse input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" input
  in
  err "not json";
  err {|{"op":"frobnicate"}|};
  err {|{"no_op":true}|};
  err {|{"op":"tick","hours":-1}|};
  err {|{"op":"submit","params":"0.9,0.2,0.3"}|};
  (* oversized *)
  err (String.make (Protocol.default_max_line + 1) 'x');
  match Protocol.parse ~max_line:8 "123456789" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "max_line not honoured"

let test_protocol_render () =
  Alcotest.(check string)
    "accepted shape"
    {|{"ok":true,"status":"accepted","id":7,"tenant":"acme","queue_depth":3}|}
    (String.trim
       (Protocol.render (Protocol.Accepted { id = 7; tenant = "acme"; queue_depth = 3 })));
  Alcotest.(check string)
    "anonymous tenant omitted"
    {|{"ok":false,"status":"queue-full","id":7,"queue_depth":4}|}
    (String.trim
       (Protocol.render (Protocol.Queue_full { id = 7; tenant = ""; queue_depth = 4 })));
  let rendered =
    Protocol.render
      (Protocol.Completed
         {
           id = 1;
           tenant = "";
           epoch = 2;
           outcome = Protocol.Workforce_limited;
           deployed = None;
           lineage = None;
         })
  in
  match Json.of_string (String.trim rendered) with
  | Error e -> Alcotest.failf "rendered response is not JSON: %s" e
  | Ok json ->
      Alcotest.(check (option string))
        "status field" (Some "completed")
        (Option.bind (Json.member "status" json) Json.to_string_value)

(* Daemon helpers *)

let paper_inputs () =
  ( Model.Paper_example.availability (),
    Model.Paper_example.strategies (),
    Model.Paper_example.requests () )

let fixed_clock = ref 1000.

let make_daemon ?(engine = Engine.default_config) ?(queue_capacity = 16)
    ?(epoch_requests = 8) ?(max_line = Protocol.default_max_line) ?(window_seconds = 60.)
    ?(slos = []) ?(quotas = []) ?(brownout = Daemon.default_config.Daemon.brownout)
    ?(drain_timeout_seconds = 30.) ?(tenant_windows = 8) ?flight_dir
    ?(flight_slots = 16) () =
  let availability, strategies, _ = paper_inputs () in
  let config =
    {
      Daemon.engine;
      queue_capacity;
      epoch_requests;
      max_line;
      window_seconds;
      slos;
      quotas;
      brownout;
      drain_timeout_seconds;
      tenant_windows;
      flight_dir;
      flight_slots;
    }
  in
  match
    Daemon.create ~clock:(fun () -> !fixed_clock) ~config ~availability ~strategies ()
  with
  | Ok daemon -> daemon
  | Error e -> Alcotest.failf "daemon create failed: %s" (Engine.error_message e)

let submit_line ?tenant ?deadline_hours ~id ~params ~k () =
  let request =
    Request.make ~id ?tenant ?deadline_hours ~params:(let q,c,l = params in Model.Params.make ~quality:q ~cost:c ~latency:l) ~k ()
  in
  match Request.to_json request with
  | Json.Object fields -> Json.to_string (Json.Object (("op", Json.String "submit") :: fields))
  | _ -> assert false

let drive daemon lines =
  List.concat_map
    (fun line ->
      let responses, _ = Daemon.handle_line daemon ~client:0 line in
      List.map snd responses)
    lines

let statuses responses =
  List.filter_map
    (fun r ->
      match Json.of_string (String.trim (Protocol.render r)) with
      | Ok json -> Option.bind (Json.member "status" json) Json.to_string_value
      | Error _ -> Some "metrics")
    responses

(* Chaos: a flood of malformed, oversized, unknown and half-valid lines
   never crashes the daemon, always yields a typed error, and leaves it
   fully serviceable. *)
let test_daemon_chaos_flood () =
  let daemon = make_daemon ~epoch_requests:3 () in
  let garbage =
    [
      "";
      "   ";
      "not json";
      "{";
      "}";
      {|{"op":42}|};
      {|{"op":"submit"}|};
      {|{"op":"submit","id":"one","params":"0.9,0.2,0.3"}|};
      {|{"op":"submit","id":1,"params":"nope"}|};
      {|{"op":"submit","id":1,"params":"0.9,0.2,0.3","k":0}|};
      {|{"op":"submit","id":1,"params":"0.9,0.2,0.3","deadline_hours":-2}|};
      {|{"op":"tick"}|};
      {|{"op":"tick","hours":"soon"}|};
      {|{"op":"frobnicate"}|};
      {|[1,2,3]|};
      {|"just a string"|};
      String.make (Protocol.default_max_line + 100) 'z';
    ]
  in
  let rounds = 20 in
  for _ = 1 to rounds do
    List.iter
      (fun line ->
        match Daemon.handle_line daemon ~client:0 line with
        | [ (0, Protocol.Error_ _) ], `Continue -> ()
        | responses, verdict ->
            Alcotest.failf "line %S: expected one typed error, got %d responses (%s)" line
              (List.length responses)
              (match verdict with `Continue -> "continue" | `Stop -> "stop"))
      garbage
  done;
  Alcotest.(check bool) "still serving" false (Daemon.stopped daemon);
  Alcotest.(check int) "nothing leaked into the queue" 0 (Daemon.queue_depth daemon);
  Alcotest.(check int)
    "every line counted"
    (rounds * List.length garbage)
    (Snapshot.counter_value (Daemon.metrics daemon) "serve.protocol_errors_total");
  (* and the daemon still completes real work afterwards *)
  let responses =
    drive daemon
      [
        submit_line ~id:1 ~params:(0.91, 0.58, 0.59) ~k:2 ();
        submit_line ~id:2 ~params:(0.91, 0.65, 0.59) ~k:2 ();
        submit_line ~id:3 ~params:(0.58, 0.24, 0.34) ~k:2 ();
      ]
  in
  Alcotest.(check (list string))
    "flood did not poison the pipeline"
    [
      "accepted"; "accepted"; "accepted"; "completed"; "completed"; "completed";
      "epoch-closed";
    ]
    (statuses responses)

let test_daemon_backpressure_and_deadlines () =
  (* fill target above the bound: epochs close only on flush, so the
     queue can actually fill *)
  let daemon = make_daemon ~queue_capacity:2 ~epoch_requests:8 () in
  let submit id = submit_line ~id ~params:(0.91, 0.58, 0.59) ~k:2 () in
  let r1 = drive daemon [ submit 1; submit 2; submit 3 ] in
  Alcotest.(check (list string))
    "third submit gets typed backpressure"
    [ "accepted"; "accepted"; "queue-full" ]
    (statuses r1);
  Alcotest.(check int) "bound holds" 2 (Daemon.queue_depth daemon);
  (* a deadline that expires while queued is a typed rejection *)
  let r2 =
    drive daemon
      [ {|{"op":"tick","hours":100}|}; {|{"op":"flush"}|} ]
  in
  Alcotest.(check (list string))
    "flush triages the still-live batch" [ "ticked"; "completed"; "completed"; "epoch-closed" ]
    (statuses r2);
  let daemon2 = make_daemon ~queue_capacity:4 ~epoch_requests:8 () in
  let r3 =
    drive daemon2
      [
        submit_line ~id:1 ~params:(0.91, 0.58, 0.59) ~k:2 ~deadline_hours:1. ();
        {|{"op":"tick","hours":2}|};
        {|{"op":"flush"}|};
      ]
  in
  Alcotest.(check (list string))
    "expired in queue -> typed rejection, empty epoch"
    [ "accepted"; "ticked"; "deadline-expired"; "epoch-closed" ]
    (statuses r3);
  Alcotest.(check int) "deadline reject counted" 1
    (Snapshot.counter_value (Daemon.metrics daemon2) "serve.rejected_deadline_total")

let test_daemon_duplicate_ids () =
  let daemon = make_daemon ~queue_capacity:8 ~epoch_requests:8 () in
  let submit tenant = submit_line ~tenant ~id:1 ~params:(0.91, 0.58, 0.59) ~k:2 () in
  let responses = drive daemon [ submit "a"; submit "b"; {|{"op":"flush"}|} ] in
  Alcotest.(check (list string))
    "second id=1 bounced, first triaged"
    [ "accepted"; "accepted"; "duplicate-id"; "completed"; "epoch-closed" ]
    (statuses responses);
  Alcotest.(check int) "duplicate counted" 1
    (Snapshot.counter_value (Daemon.metrics daemon) "serve.rejected_duplicate_total")

let test_daemon_shutdown_drains () =
  let daemon = make_daemon ~queue_capacity:8 ~epoch_requests:8 () in
  let responses =
    drive daemon
      [
        submit_line ~id:1 ~params:(0.91, 0.58, 0.59) ~k:2 ();
        submit_line ~id:2 ~params:(0.58, 0.24, 0.34) ~k:2 ();
        {|{"op":"shutdown"}|};
      ]
  in
  Alcotest.(check (list string))
    "pending work answered before stopping"
    [ "accepted"; "accepted"; "completed"; "completed"; "epoch-closed"; "shutting-down" ]
    (statuses responses);
  Alcotest.(check bool) "stopped" true (Daemon.stopped daemon);
  Alcotest.(check int) "zero admission leaks" 0 (Daemon.queue_depth daemon);
  let after, verdict = Daemon.handle_line daemon ~client:0 {|{"op":"ping"}|} in
  Alcotest.(check bool) "post-shutdown lines refused" true
    (match (after, verdict) with [ (_, Protocol.Error_ _) ], `Stop -> true | _ -> false)

(* GET endpoints: health and slo parse/render, unknown paths echo back
   as a typed response instead of a generic parse error. *)

let test_protocol_endpoints () =
  let ok = function Ok c -> c | Error e -> Alcotest.failf "parse failed: %s" e in
  (match ok (Protocol.parse "GET health") with
  | Protocol.Health None -> ()
  | _ -> Alcotest.fail "expected Health");
  (match ok (Protocol.parse "get /SLO") with
  | Protocol.Slo None -> ()
  | _ -> Alcotest.fail "expected Slo (path form, case-folded)");
  (match ok (Protocol.parse "GET health?tenant=acme") with
  | Protocol.Health (Some "acme") -> ()
  | _ -> Alcotest.fail "expected tenant-scoped Health");
  (match ok (Protocol.parse "GET /slo?tenant=beta") with
  | Protocol.Slo (Some "beta") -> ()
  | _ -> Alcotest.fail "expected tenant-scoped Slo");
  (match ok (Protocol.parse {|{"op":"dump"}|}) with
  | Protocol.Dump -> ()
  | _ -> Alcotest.fail "expected Dump");
  (match ok (Protocol.parse "GET /metrics/extra") with
  | Protocol.Unknown_get path ->
      Alcotest.(check string) "path echoed verbatim" "/metrics/extra" path
  | _ -> Alcotest.fail "expected Unknown_get");
  Alcotest.(check string)
    "unknown-endpoint shape"
    {|{"ok":false,"status":"unknown-endpoint","path":"/metrics/extra"}|}
    (String.trim (Protocol.render (Protocol.Unknown_endpoint { path = "/metrics/extra" })));
  Alcotest.(check string)
    "health shape"
    {|{"ok":true,"status":"health","state":"degraded","reasons":["queue-saturated"],"breaker":"closed","queue_depth":4,"queue_capacity":5,"slo_burning":0,"epochs":2,"brownout_rung":0,"draining":false,"io_errors":0,"cache_hit_ratio":0.25}|}
    (String.trim
       (Protocol.render
          (Protocol.Health_status
             {
               state = Protocol.Degraded;
               scope = None;
               reasons = [ "queue-saturated" ];
               breaker = Some "closed";
               queue_depth = 4;
               queue_capacity = 5;
               slo_burning = 0;
               epochs = 2;
               brownout_rung = 0;
               draining = false;
               io_errors = 0;
               cache_hit_ratio = Some 0.25;
             })));
  Alcotest.(check string)
    "slo report shape"
    {|{"ok":true,"status":"slo","slos":[{"slo":"api","burning":true,"fast_burn_rate":20,"slow_burn_rate":20,"budget_remaining":0}]}|}
    (String.trim
       (Protocol.render
          (Protocol.Slo_report
             [
               {
                 Protocol.slo = "api";
                 slo_tenant = None;
                 burning = true;
                 fast_burn_rate = 20.;
                 slow_burn_rate = 20.;
                 budget_remaining = 0.;
               };
             ])))

let test_daemon_unknown_endpoint () =
  fixed_clock := 1000.;
  let daemon = make_daemon () in
  (match Daemon.handle_line daemon ~client:0 "GET /metrics/extra" with
  | [ (0, Protocol.Unknown_endpoint { path }) ], `Continue ->
      Alcotest.(check string) "path echoed" "/metrics/extra" path
  | _ -> Alcotest.fail "expected one unknown-endpoint response");
  Alcotest.(check int) "counted as protocol error" 1
    (Snapshot.counter_value (Daemon.metrics daemon) "serve.protocol_errors_total")

(* Latency lineage: every Completed carries the queue/triage/deploy
   stage breakdown on the daemon's (fake) clock axis. *)
let test_daemon_lineage () =
  fixed_clock := 1000.;
  let daemon = make_daemon ~epoch_requests:8 () in
  let r1 = drive daemon [ submit_line ~id:1 ~params:(0.91, 0.58, 0.59) ~k:2 () ] in
  Alcotest.(check (list string)) "queued" [ "accepted" ] (statuses r1);
  fixed_clock := 1003.5;
  let responses = drive daemon [ {|{"op":"flush"}|} ] in
  match
    List.filter_map
      (function Protocol.Completed { lineage; _ } -> Some lineage | _ -> None)
      responses
  with
  | [ Some l ] ->
      Alcotest.(check (float 1e-9)) "queue wait on the fake clock" 3.5 l.Protocol.queue_seconds;
      Alcotest.(check (float 1e-9)) "fake clock: triage instantaneous" 0. l.Protocol.triage_seconds;
      Alcotest.(check (float 1e-9)) "no deploy stage configured" 0. l.Protocol.deploy_seconds;
      Alcotest.(check (float 1e-9))
        "total = queue + triage + deploy"
        (l.Protocol.queue_seconds +. l.Protocol.triage_seconds +. l.Protocol.deploy_seconds)
        l.Protocol.total_seconds
  | _ -> Alcotest.fail "expected exactly one completed response carrying lineage"

(* The readiness rubric over handle_line: fresh daemon is ready; a
   burning SLO or a saturated queue degrades it, with binding reasons. *)
let test_daemon_health_and_slo () =
  fixed_clock := 1000.;
  let slo =
    match Obs.Slo.spec_of_string "name=deliver;target=0.95" with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec: %s" e
  in
  let daemon = make_daemon ~queue_capacity:4 ~epoch_requests:8 ~slos:[ slo ] () in
  let health d =
    match Daemon.handle_line d ~client:0 "GET health" with
    | [ (0, Protocol.Health_status { state; reasons; slo_burning; _ }) ], `Continue ->
        (Protocol.health_state_label state, reasons, slo_burning)
    | _ -> Alcotest.fail "expected one health response"
  in
  let state, reasons, burning = health daemon in
  Alcotest.(check string) "fresh daemon ready" "ready" state;
  Alcotest.(check (list string)) "no reasons" [] reasons;
  Alcotest.(check int) "no slo firing" 0 burning;
  (* a deadline expiring in the queue is a bad SLO event; with nothing
     good in the window the burn rate is 1/(1-target) = 20x on both
     windows, past the 14x/6x alert thresholds *)
  let r =
    drive daemon
      [
        submit_line ~id:1 ~params:(0.91, 0.58, 0.59) ~k:2 ~deadline_hours:1. ();
        {|{"op":"tick","hours":2}|};
        {|{"op":"flush"}|};
      ]
  in
  Alcotest.(check (list string))
    "expiry observed" [ "accepted"; "ticked"; "deadline-expired"; "epoch-closed" ] (statuses r);
  let state, reasons, burning = health daemon in
  Alcotest.(check string) "burning slo degrades health" "degraded" state;
  Alcotest.(check (list string)) "binding reason" [ "slo-burning:deliver" ] reasons;
  Alcotest.(check int) "one slo firing" 1 burning;
  (match Daemon.handle_line daemon ~client:0 "GET slo" with
  | [ (0, Protocol.Slo_report [ s ]) ], `Continue ->
      Alcotest.(check string) "slo name" "deliver" s.Protocol.slo;
      Alcotest.(check bool) "burning" true s.Protocol.burning;
      Alcotest.(check bool) "budget overspent" true (s.Protocol.budget_remaining < 0.)
  | _ -> Alcotest.fail "expected a one-entry slo report");
  (* queue saturation is an independent degraded signal *)
  let daemon2 = make_daemon ~queue_capacity:4 ~epoch_requests:8 () in
  let submits =
    List.init 4 (fun i -> submit_line ~id:(i + 1) ~params:(0.91, 0.58, 0.59) ~k:2 ())
  in
  Alcotest.(check (list string))
    "queue filled"
    [ "accepted"; "accepted"; "accepted"; "accepted" ]
    (statuses (drive daemon2 submits));
  let state, reasons, _ = health daemon2 in
  Alcotest.(check string) "full queue degrades health" "degraded" state;
  Alcotest.(check (list string))
    "binding reasons (saturation also walked the brownout ladder)"
    [ "queue-full"; "brownout-rung:1" ]
    reasons

(* The scrape carries the new observability surfaces: sliding-window
   gauges, SLO burn gauges and the oversized-line counter. *)
let test_daemon_scrape_surfaces () =
  fixed_clock := 1000.;
  let slo =
    match Obs.Slo.spec_of_string "name=deliver;target=0.95" with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec: %s" e
  in
  let daemon = make_daemon ~slos:[ slo ] () in
  ignore (drive daemon [ submit_line ~id:1 ~params:(0.91, 0.58, 0.59) ~k:2 (); {|{"op":"flush"}|} ]);
  let text =
    match Daemon.handle_line daemon ~client:0 "GET metrics" with
    | [ (0, Protocol.Metrics_text text) ], `Continue -> text
    | _ -> Alcotest.fail "expected a metrics scrape"
  in
  let lines = String.split_on_char '\n' text in
  let has prefix =
    Alcotest.(check bool) ("scrape has " ^ prefix) true
      (List.exists
         (fun l -> String.length l >= String.length prefix && String.sub l 0 (String.length prefix) = prefix)
         lines)
  in
  has "serve_requests_window_count 1";
  has "serve_e2e_seconds_window_p99";
  has "serve_queue_wait_seconds_window_rate_per_sec";
  has "obs_slo_deliver_fast_burn_rate";
  has "obs_slo_deliver_budget_remaining";
  has "serve_oversized_lines_total 0"

(* The transport's oversized-line guard and its daemon counter. *)
let test_lines_guard_and_counter () =
  fixed_clock := 1000.;
  let lines = Serve.Server.Lines.create () in
  let feed = Serve.Server.Lines.feed lines ~max_line:8 in
  let got, dropped = feed "short\n" in
  Alcotest.(check (list string)) "line split" [ "short" ] got;
  Alcotest.(check int) "no drops" 0 dropped;
  let got, dropped = feed "0123456789abcdef" in
  Alcotest.(check (list string)) "oversized prefix swallowed" [] got;
  Alcotest.(check int) "drop reported at the closing newline" 0 dropped;
  let got, dropped = feed "tail\nok\n" in
  Alcotest.(check (list string)) "discard runs to the next newline" [ "ok" ] got;
  Alcotest.(check int) "one drop counted" 1 dropped;
  let daemon = make_daemon () in
  Daemon.note_oversized daemon 3;
  Alcotest.(check int) "transport drops counted" 3
    (Snapshot.counter_value (Daemon.metrics daemon) "serve.oversized_lines_total")

(* Per-tenant quotas over handle_line: a tenant at its max-queued cap
   gets a typed quota-exceeded rejection while the others keep being
   admitted, and the reject is counted. *)
let test_daemon_quota_rejection () =
  fixed_clock := 1000.;
  let daemon =
    make_daemon ~epoch_requests:8
      ~quotas:[ ("acme", { Admission.default_quota with max_queued = Some 1 }) ]
      ()
  in
  let submit id tenant = submit_line ~tenant ~id ~params:(0.91, 0.58, 0.59) ~k:2 () in
  let responses = drive daemon [ submit 1 "acme"; submit 2 "acme"; submit 3 "beta" ] in
  Alcotest.(check (list string))
    "capped tenant bounced, others admitted"
    [ "accepted"; "quota-exceeded"; "accepted" ]
    (statuses responses);
  (match List.nth responses 1 with
  | Protocol.Quota_exceeded { id; tenant; queued; limit } ->
      Alcotest.(check int) "id echoed" 2 id;
      Alcotest.(check string) "tenant named" "acme" tenant;
      Alcotest.(check int) "depth reported" 1 queued;
      Alcotest.(check int) "limit reported" 1 limit
  | _ -> Alcotest.fail "expected a quota-exceeded response");
  Alcotest.(check (list string))
    "queued work unaffected"
    [ "completed"; "completed"; "epoch-closed" ]
    (statuses (drive daemon [ {|{"op":"flush"}|} ]));
  Alcotest.(check int) "quota reject counted" 1
    (Snapshot.counter_value (Daemon.metrics daemon) "serve.rejected_quota_total")

(* The brownout ladder over handle_line: sustained saturation walks one
   rung per handled line up to the cap; at rung 3 low-priority and
   over-share submits are shed with typed overloaded responses; an
   emptied queue walks the ladder back down, one rung per line. *)
let test_daemon_brownout_ladder () =
  fixed_clock := 1000.;
  let daemon =
    make_daemon ~queue_capacity:4 ~epoch_requests:8
      ~quotas:[ ("low", { Admission.default_quota with weight = 0.5 }) ]
      ()
  in
  let submit ?tenant id = submit_line ?tenant ~id ~params:(0.91, 0.58, 0.59) ~k:2 () in
  Alcotest.(check (list string))
    "queue saturates"
    [ "accepted"; "accepted"; "accepted"; "accepted" ]
    (statuses (drive daemon [ submit 1; submit 2; submit 3; submit 4 ]));
  Alcotest.(check int) "one rung after the saturating line" 1 (Daemon.brownout_rung daemon);
  ignore (drive daemon [ {|{"op":"ping"}|}; {|{"op":"ping"}|} ]);
  Alcotest.(check int) "one rung per handled line, capped" 3 (Daemon.brownout_rung daemon);
  (* rung 3: a default-weight tenant over its epoch share is shed *)
  (match drive daemon [ submit 5 ] with
  | [ Protocol.Overloaded { id; rung; reason; _ } ] ->
      Alcotest.(check int) "id echoed" 5 id;
      Alcotest.(check int) "rung reported" 3 rung;
      Alcotest.(check string) "over-share named" "over-share" reason
  | r -> Alcotest.failf "expected one overloaded response, got %s" (String.concat "," (statuses r)));
  (* rung 3: a weight<1 tenant is shed outright *)
  (match drive daemon [ submit ~tenant:"low" 6 ] with
  | [ Protocol.Overloaded { reason; _ } ] ->
      Alcotest.(check string) "low-priority named" "low-priority" reason
  | r -> Alcotest.failf "expected one overloaded response, got %s" (String.concat "," (statuses r)));
  let m = Daemon.metrics daemon in
  Alcotest.(check int) "sheds counted" 2 (Snapshot.counter_value m "serve.shed_total");
  Alcotest.(check int) "over-share counted" 1
    (Snapshot.counter_value ~labels:[ ("reason", "over-share") ] m "serve.shed_total");
  Alcotest.(check int) "low-priority counted" 1
    (Snapshot.counter_value ~labels:[ ("reason", "low-priority") ] m "serve.shed_total");
  Alcotest.(check int) "escalations counted" 3
    (Snapshot.counter_value m "serve.brownout.escalations_total");
  (* flush empties the queue; recovery walks back with hysteresis *)
  Alcotest.(check (list string))
    "queued work still completes under brownout"
    [ "completed"; "completed"; "completed"; "completed"; "epoch-closed" ]
    (statuses (drive daemon [ {|{"op":"flush"}|} ]));
  Alcotest.(check int) "one rung down after the emptying line" 2 (Daemon.brownout_rung daemon);
  ignore (drive daemon [ {|{"op":"ping"}|}; {|{"op":"ping"}|} ]);
  Alcotest.(check int) "recovered to normal service" 0 (Daemon.brownout_rung daemon);
  Alcotest.(check int) "recoveries counted" 3
    (Snapshot.counter_value (Daemon.metrics daemon) "serve.brownout.recoveries_total");
  (* back at rung 0: submits are admitted again *)
  Alcotest.(check (list string))
    "service restored" [ "accepted" ]
    (statuses (drive daemon [ submit 7 ]))

(* With the latency signal off the ladder never reads the e2e p99, yet
   an escalation still logs the window's p99: the value the scrape's
   gauge reads at that instant. *)
let test_daemon_brownout_escalation_log () =
  fixed_clock := 1000.;
  let lines = ref [] in
  let log =
    Obs.Log.create ~clock:(fun () -> !fixed_clock) ~writer:(fun l -> lines := l :: !lines) ()
  in
  let daemon =
    make_daemon ~engine:(Engine.with_log Engine.default_config log) ~queue_capacity:4
      ~epoch_requests:8 ()
  in
  let submit id = submit_line ~id ~params:(0.91, 0.58, 0.59) ~k:2 () in
  ignore (drive daemon [ submit 1; submit 2 ]);
  fixed_clock := 1000.5;
  ignore (drive daemon [ {|{"op":"flush"}|} ]);
  ignore (drive daemon [ submit 3; submit 4; submit 5; submit 6 ]);
  Alcotest.(check int) "escalated once" 1 (Daemon.brownout_rung daemon);
  let logged =
    List.filter_map
      (fun line ->
        match Json.of_string line with
        | Ok j when Json.member "msg" j = Some (Json.String "brownout escalated") ->
            Option.bind (Json.member "p99_seconds" j) Json.to_float
        | _ -> None)
      !lines
  in
  let window = Snapshot.gauge_value (Daemon.metrics daemon) "serve.e2e_seconds.window.p99" in
  Alcotest.(check bool) "the window saw the 0.5 s requests" true (window > 0.);
  Alcotest.(check (list (float 0.))) "escalation logs the window p99" [ window ] logged

(* The drain verb: everything queued is answered within the budget, the
   summary counts it, and the daemon refuses new work afterwards while
   health stays scrapeable and names the state. *)
let test_daemon_drain () =
  fixed_clock := 1000.;
  let daemon = make_daemon ~epoch_requests:8 () in
  let submit id = submit_line ~id ~params:(0.91, 0.58, 0.59) ~k:2 () in
  let responses = drive daemon [ submit 1; submit 2; {|{"op":"drain"}|} ] in
  Alcotest.(check (list string))
    "queued work answered, then the summary"
    [ "accepted"; "accepted"; "completed"; "completed"; "epoch-closed"; "drained" ]
    (statuses responses);
  (match List.rev responses with
  | Protocol.Drained { answered; expired; forced; epochs } :: _ ->
      Alcotest.(check int) "answered counted" 2 answered;
      Alcotest.(check int) "nothing expired" 0 expired;
      Alcotest.(check int) "nothing forced" 0 forced;
      Alcotest.(check int) "one epoch ran" 1 epochs
  | _ -> Alcotest.fail "expected a drained summary");
  Alcotest.(check bool) "draining state latched" true (Daemon.draining daemon);
  Alcotest.(check (list string))
    "submits after drain refused typed" [ "draining" ]
    (statuses (drive daemon [ submit 3 ]));
  (match Daemon.handle_line daemon ~client:0 "GET health" with
  | [ (0, Protocol.Health_status { state; reasons; draining; _ }) ], `Continue ->
      Alcotest.(check string) "degraded" "degraded" (Protocol.health_state_label state);
      Alcotest.(check bool) "draining bound as a reason" true (List.mem "draining" reasons);
      Alcotest.(check bool) "draining field" true draining
  | _ -> Alcotest.fail "expected one health response");
  Alcotest.(check (list string))
    "shutdown still clean" [ "shutting-down" ]
    (statuses (drive daemon [ {|{"op":"shutdown"}|} ]));
  Alcotest.(check int) "no leaks" 0 (Daemon.queue_depth daemon)

(* A zero drain budget skips straight to the force-close: every queued
   request is answered with a typed drain-expired response. *)
let test_daemon_drain_forced () =
  fixed_clock := 1000.;
  let daemon = make_daemon ~epoch_requests:8 ~drain_timeout_seconds:0. () in
  let r1 = drive daemon [ submit_line ~id:9 ~params:(0.91, 0.58, 0.59) ~k:2 () ] in
  Alcotest.(check (list string)) "queued" [ "accepted" ] (statuses r1);
  fixed_clock := 1002.;
  let responses = drive daemon [ {|{"op":"drain"}|} ] in
  Alcotest.(check (list string))
    "forced out typed, then the summary" [ "drain-expired"; "drained" ] (statuses responses);
  (match responses with
  | [ Protocol.Drain_expired { id; waited_seconds; _ }; Protocol.Drained { forced; epochs; _ } ] ->
      Alcotest.(check int) "id echoed" 9 id;
      Alcotest.(check (float 1e-9)) "wait on the fake clock" 2. waited_seconds;
      Alcotest.(check int) "forced counted" 1 forced;
      Alcotest.(check int) "no epochs ran" 0 epochs
  | _ -> Alcotest.fail "expected drain-expired then drained");
  Alcotest.(check int) "queue empty — nothing leaked" 0 (Daemon.queue_depth daemon);
  Alcotest.(check int) "forced drain counted" 1
    (Snapshot.counter_value (Daemon.metrics daemon) "serve.drain_forced_total")

(* A 4x overload flood across three tenants (weights 2 / 1 / 0.5): the
   daemon never raises, every submit is answered typed, accepted work
   all completes, and the weighted fairness holds — the heavy tenant
   completes at least as much as the default one, which completes at
   least as much as the low-priority one, and nobody starves. *)
let test_daemon_overload_flood () =
  fixed_clock := 1000.;
  let daemon =
    make_daemon ~queue_capacity:8 ~epoch_requests:12
      ~quotas:
        [
          ("heavy", { Admission.default_quota with weight = 2. });
          ("low", { Admission.default_quota with weight = 0.5 });
        ]
      ()
  in
  let tenants = [ "heavy"; "beta"; "low" ] in
  let rounds = 32 in
  let lines =
    List.concat
      (List.init rounds (fun round ->
           List.mapi
             (fun i tenant ->
               submit_line ~tenant ~id:((round * 3) + i + 1) ~params:(0.91, 0.58, 0.59)
                 ~k:2 ())
             tenants
           @ (if (round + 1) mod 4 = 0 then [ {|{"op":"flush"}|} ] else [])))
  in
  let responses = drive daemon lines in
  (* every response is one of the typed overload-era statuses *)
  let allowed =
    [ "accepted"; "queue-full"; "quota-exceeded"; "overloaded"; "completed"; "epoch-closed" ]
  in
  List.iter
    (fun s ->
      if not (List.mem s allowed) then Alcotest.failf "unexpected response status %S" s)
    (statuses responses);
  (* flush the tail until the queue is empty *)
  let tail = ref [] in
  while Daemon.queue_depth daemon > 0 do
    tail := !tail @ drive daemon [ {|{"op":"flush"}|} ]
  done;
  let all = responses @ !tail in
  let count pred = List.length (List.filter pred all) in
  let accepted tenant =
    count (function Protocol.Accepted { tenant = t; _ } -> t = tenant | _ -> false)
  in
  let completed tenant =
    count (function Protocol.Completed { tenant = t; _ } -> t = tenant | _ -> false)
  in
  let rejected tenant =
    count (function
      | Protocol.Queue_full { tenant = t; _ }
      | Protocol.Quota_exceeded { tenant = t; _ }
      | Protocol.Overloaded { tenant = t; _ } -> t = tenant
      | _ -> false)
  in
  List.iter
    (fun tenant ->
      Alcotest.(check int)
        (tenant ^ ": every submit answered exactly once")
        rounds
        (accepted tenant + rejected tenant);
      Alcotest.(check int)
        (tenant ^ ": every accepted request completed")
        (accepted tenant) (completed tenant);
      Alcotest.(check bool) (tenant ^ ": not starved") true (completed tenant >= 1))
    tenants;
  Alcotest.(check bool) "weighted fairness: heavy >= beta" true
    (completed "heavy" >= completed "beta");
  Alcotest.(check bool) "weighted fairness: beta >= low" true
    (completed "beta" >= completed "low");
  Alcotest.(check bool) "brownout engaged during the flood" true
    (Snapshot.counter_value (Daemon.metrics daemon) "serve.brownout.escalations_total" >= 1);
  Alcotest.(check bool) "daemon survived" false (Daemon.stopped daemon);
  Alcotest.(check int) "queue fully drained" 0 (Daemon.queue_depth daemon)

(* The client line pump over a socketpair with injected transport
   faults: partial writes, EINTR and slow-loris dribble on the pump's
   side of the wire must not corrupt, reorder or drop a single line. *)
let test_pump_under_faults () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let n = 50 in
  let lines =
    List.init n (fun i -> Printf.sprintf "line-%04d-%s" i (String.make (i mod 37) 'x'))
  in
  let tmp_in = Filename.temp_file "stratrec-pump" ".in" in
  let tmp_out = Filename.temp_file "stratrec-pump" ".out" in
  let ch = open_out tmp_in in
  List.iter (fun l -> output_string ch (l ^ "\n")) lines;
  close_out ch;
  (* the peer echoes every byte back until the pump shuts down its send
     side, then closes — so the pump sees its own lines as responses *)
  let peer =
    Domain.spawn (fun () ->
        let buf = Bytes.create 512 in
        let rec loop () =
          match Unix.read b buf 0 (Bytes.length buf) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | 0 -> ()
          | got ->
              let rec wr off =
                if off < got then
                  match Unix.write b buf off (got - off) with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wr off
                  | w -> wr (off + w)
              in
              wr 0;
              loop ()
        in
        loop ();
        (try Unix.shutdown b Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        Unix.close b)
  in
  let rng = Stratrec_util.Rng.create 2020 in
  let io =
    Serve.Server.Io.faulty ~rng
      { Serve.Server.Io.no_faults with partial_write = 0.4; eintr = 0.3; dribble = 0.3 }
  in
  let ic = open_in tmp_in and oc = open_out tmp_out in
  let result = Serve.Server.pump ~io a ic oc in
  close_in ic;
  close_out oc;
  Domain.join peer;
  (match result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pump failed under faults: %s" e);
  let echoed = In_channel.with_open_text tmp_out In_channel.input_all in
  Sys.remove tmp_in;
  Sys.remove tmp_out;
  Alcotest.(check string)
    "every line arrived intact and in order"
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))
    echoed

(* The real select loop under injected transport faults: a flood of
   submits (plus one oversized line) through a fault-ridden Io still
   reaches the daemon, every response is typed JSON, shutdown lands,
   nothing leaks, and the io-error accounting registered the abuse. *)
let test_serve_socket_chaos () =
  fixed_clock := 1000.;
  let daemon = make_daemon ~queue_capacity:8 ~epoch_requests:4 () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stratrec-chaos-%d.sock" (Unix.getpid ()))
  in
  let rng = Stratrec_util.Rng.create 7 in
  let io =
    Serve.Server.Io.faulty ~rng
      { Serve.Server.Io.no_faults with partial_write = 0.3; eintr = 0.2; dribble = 0.2 }
  in
  let server =
    Domain.spawn (fun () -> Serve.Server.serve ~daemon ~io (Serve.Server.Unix_socket path))
  in
  let rec connect_retry tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.02;
        connect_retry (tries - 1)
  in
  let fd = connect_retry 250 in
  let send s =
    let data = s ^ "\n" in
    let len = String.length data in
    let rec go off =
      if off < len then
        match Unix.write_substring fd data off (len - off) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | w -> go (off + w)
    in
    go 0
  in
  List.iter
    (fun i -> send (submit_line ~id:i ~params:(0.91, 0.58, 0.59) ~k:2 ()))
    (List.init 32 (fun i -> i + 1));
  send (String.make (Protocol.default_max_line + 50) 'z');
  send {|{"op":"flush"}|};
  send {|{"op":"shutdown"}|};
  let buf = Bytes.create 4096 in
  let out = Buffer.create 4096 in
  let rec read_all () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out buf 0 n;
        read_all ()
  in
  read_all ();
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serve failed under faults: %s" e);
  Unix.close fd;
  Alcotest.(check bool) "daemon stopped on shutdown" true (Daemon.stopped daemon);
  Alcotest.(check int) "no leaked requests" 0 (Daemon.queue_depth daemon);
  Alcotest.(check bool) "oversized line registered as an io error" true
    (Daemon.io_error_count daemon >= 1);
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Buffer.contents out))
  in
  Alcotest.(check bool) "responses streamed back" true (List.length lines > 0);
  List.iter
    (fun l ->
      match Json.of_string l with
      | Ok json -> (
          match Json.member "status" json with
          | Some _ -> ()
          | None -> Alcotest.failf "response without a status: %s" l)
      | Error e -> Alcotest.failf "response is not JSON (%s): %S" e l)
    lines

(* Helpers for the socket tests below: a client fd on a serving Unix
   socket, and line reads that fail the test after [timeout] seconds of
   silence instead of blocking forever. *)
let socket_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "stratrec-%s-%d.sock" name (Unix.getpid ()))

let rec dial path tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      dial path (tries - 1)

let send_all fd data =
  let rec go off =
    if off < String.length data then
      match Unix.write_substring fd data off (String.length data - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | w -> go (off + w)
  in
  go 0

(* Read lines from [fd] until [enough] holds for the lines read so far
   (or the peer closes, when [enough] is [None]). A receive timeout
   rather than select guards the reads, so it works on any descriptor. *)
let read_lines ?(timeout = 20.) ?enough fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  let buf = Bytes.create 4096 and got = Buffer.create 4096 in
  let lines () =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents got))
  in
  let rec go () =
    match enough with
    | Some f when f (lines ()) -> lines ()
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.failf "no answer within %.0f s" timeout
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> lines ()
        | 0 -> (
            match enough with
            | None -> lines ()
            | Some _ -> Alcotest.failf "connection closed early: %s" (Buffer.contents got))
        | n ->
            Buffer.add_subbytes got buf 0 n;
            go ())
  in
  go ()

let has_status status id line =
  match Json.of_string line with
  | Ok j ->
      Option.bind (Json.member "status" j) Json.to_string_value = Some status
      && Option.bind (Json.member "id" j) Json.to_int = Some id
  | Error _ -> false

(* A peer that floods submits and never reads must not stall the
   others. Its unsent output outgrows the bound (16 lines of 512 bytes
   here), so it is evicted and counted as a slow consumer, while client
   B, whose requests share an epoch with the flood, gets every answer.
   Every read is timeout-guarded: a loop that blocks writing to the
   flooder fails this test instead of hanging it. *)
let test_serve_slow_consumer () =
  fixed_clock := 1000.;
  let daemon = make_daemon ~queue_capacity:64 ~epoch_requests:8 ~max_line:512 () in
  let path = socket_path "slow" in
  let server =
    Domain.spawn (fun () -> Serve.Server.serve ~daemon (Serve.Server.Unix_socket path))
  in
  let a = dial path 250 in
  let b = dial path 250 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      let b_ids = [ 1; 2; 3 ] in
      List.iter
        (fun id -> send_all b (submit_line ~id ~params:(0.91, 0.58, 0.59) ~k:2 () ^ "\n"))
        b_ids;
      ignore
        (read_lines b ~enough:(fun ls -> List.for_all (fun id -> List.exists (has_status "accepted" id) ls) b_ids));
      (* A writes without blocking until the daemon hangs up on it, or
         stops reading it for five seconds. *)
      Unix.set_nonblock a;
      let flood =
        String.concat ""
          (List.init 20_000 (fun i ->
               submit_line ~id:(i + 100) ~params:(0.91, 0.58, 0.59) ~k:2 () ^ "\n"))
      in
      let rec push off =
        if off < String.length flood then
          match Unix.write_substring a flood off (String.length flood - off) with
          | n -> push (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
              match Unix.select [] [ a ] [] 5.0 with
              | _, [], _ -> ()
              | _ -> push off
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off)
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      in
      push 0;
      send_all b "{\"op\":\"flush\"}\n";
      let answers =
        read_lines b ~enough:(fun ls ->
            List.for_all (fun id -> List.exists (has_status "completed" id) ls) b_ids)
      in
      List.iter
        (fun id ->
          Alcotest.(check int) (Printf.sprintf "B's request %d completed once" id) 1
            (List.length (List.filter (has_status "completed" id) answers)))
        b_ids;
      send_all b "{\"op\":\"shutdown\"}\n";
      let rest = read_lines b in
      Alcotest.(check bool) "B saw the shutdown" true
        (List.mem {|{"ok":true,"status":"shutting-down"}|} rest);
      (match Domain.join server with
      | Ok () -> ()
      | Error e -> Alcotest.failf "serve failed: %s" e);
      Alcotest.(check int) "the flooder was evicted once" 1
        (Snapshot.counter_value ~labels:[ ("kind", "slow-consumer") ] (Daemon.metrics daemon)
           "serve.io_errors_total");
      Alcotest.(check int) "no leaked requests" 0 (Daemon.queue_depth daemon))

(* A reader that lags behind loses nothing: forty scrapes (over half a
   megabyte, more than the socket buffer takes, less than the eviction
   bound) queue up while it sleeps, wait in select's write set, and are
   flushed in full after shutdown, before the listener closes. *)
let test_serve_lagging_reader () =
  fixed_clock := 1000.;
  let daemon = make_daemon () in
  let path = socket_path "lag" in
  let server =
    Domain.spawn (fun () -> Serve.Server.serve ~daemon (Serve.Server.Unix_socket path))
  in
  let fd = dial path 250 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd (String.concat "" (List.init 40 (fun _ -> "GET metrics\n")));
      send_all fd "{\"op\":\"shutdown\"}\n";
      Unix.sleepf 0.3;
      let lines = read_lines fd in
      (match Domain.join server with
      | Ok () -> ()
      | Error e -> Alcotest.failf "serve failed: %s" e);
      Alcotest.(check int) "every scrape arrived whole" 40
        (List.length (List.filter (( = ) "# EOF") lines));
      Alcotest.(check (option string)) "shutdown answered last"
        (Some {|{"ok":true,"status":"shutting-down"}|})
        (List.nth_opt lines (List.length lines - 1));
      Alcotest.(check int) "a lagging reader is no transport fault" 0
        (Daemon.io_error_count daemon))

(* More connections than select can watch (FD_SETSIZE, 1024): every
   descriptor beyond the limit is refused with one typed error line and
   counted as an fd-limit io error, and the daemon keeps serving the
   connections it holds. Client and server ends live in this process,
   so the test needs about 2.2k descriptors. *)
let test_serve_fd_limit () =
  fixed_clock := 1000.;
  let daemon = make_daemon ~epoch_requests:8 () in
  let path = socket_path "fdlimit" in
  let server =
    Domain.spawn (fun () -> Serve.Server.serve ~daemon (Serve.Server.Unix_socket path))
  in
  let first = dial path 250 in
  let others = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) (first :: !others))
    (fun () ->
      send_all first (submit_line ~id:1 ~params:(0.91, 0.58, 0.59) ~k:2 () ^ "\n");
      ignore (read_lines first ~enough:(List.exists (has_status "accepted" 1)));
      for _ = 2 to 1100 do
        others := dial path 250 :: !others
      done;
      (match read_lines (List.hd !others) with
      | [ line ] ->
          Alcotest.(check bool) ("refused with a typed error: " ^ line) true
            (String.starts_with ~prefix:{|{"ok":false,"status":"error","error":"too many connections|}
               line)
      | lines -> Alcotest.failf "expected one refusal line, got %d" (List.length lines));
      send_all first "{\"op\":\"flush\"}\n";
      ignore (read_lines first ~enough:(List.exists (has_status "completed" 1)));
      send_all first "{\"op\":\"shutdown\"}\n";
      ignore (read_lines first);
      (match Domain.join server with
      | Ok () -> ()
      | Error e -> Alcotest.failf "serve failed: %s" e);
      Alcotest.(check bool) "refusals counted as fd-limit" true
        (Snapshot.counter_value ~labels:[ ("kind", "fd-limit") ] (Daemon.metrics daemon)
           "serve.io_errors_total"
        >= 1))

(* Randomized protocol floods: any mix of valid submits, flushes,
   ticks (up to 1e308 hours), reads and printable garbage is always
   answered with at least one typed response that renders, never an
   exception, and never stops the daemon. *)
let prop_daemon_flood_typed =
  let line_gen =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map
              (fun id -> submit_line ~id:(id + 1) ~params:(0.91, 0.58, 0.59) ~k:2 ())
              small_nat );
          (1, return {|{"op":"flush"}|});
          (1, return {|{"op":"tick","hours":1}|});
          ( 1,
            map
              (Printf.sprintf {|{"op":"tick","hours":%.17g}|})
              (oneof [ float_bound_inclusive 1e308; map (( ** ) 10.) (float_range 0. 308.) ]) );
          (1, return "GET health");
          (1, return "GET metrics");
          (2, string_size ~gen:printable small_nat);
        ])
  in
  QCheck.Test.make ~count:100 ~name:"random protocol floods are always answered typed"
    (QCheck.make
       ~print:QCheck.Print.(list string)
       QCheck.Gen.(list_size (int_bound 40) line_gen))
    (fun lines ->
      fixed_clock := 1000.;
      let daemon = make_daemon ~queue_capacity:4 ~epoch_requests:2 () in
      List.for_all
        (fun line ->
          match Daemon.handle_line daemon ~client:0 line with
          | [], _ -> false
          | _, `Stop -> false
          | responses, `Continue ->
              (* Rendered as [Server.deliver] does: a non-finite number
                 raises here. *)
              List.iter (fun (_, r) -> ignore (Protocol.render r)) responses;
              true)
        lines
      && not (Daemon.stopped daemon))

(* Conservation: random line sequences from three clients — submits
   with repeated ids across two tenants (acme capped at two queued) and
   some deadlines, ticks, flushes, reads and drains, ended by shutdown.
   Every (client, id) gets as many terminal lines as acceptances, and
   the serve_* counters add up the same way the responses do. *)
let prop_daemon_conservation =
  let submit_gen =
    QCheck.Gen.(
      map3
        (fun id tenant deadline_hours ->
          submit_line ~tenant ?deadline_hours ~id ~params:(0.91, 0.58, 0.59) ~k:2 ())
        (int_range 1 6) (oneofl [ "acme"; "beta" ])
        (opt ~ratio:0.3 (oneofl [ 0.5; 2. ])))
  in
  let line_gen =
    QCheck.Gen.(
      frequency
        [
          (10, submit_gen);
          (2, return {|{"op":"tick","hours":1}|});
          (2, return {|{"op":"flush"}|});
          (1, return "GET health");
          (1, return "GET metrics");
          (1, return {|{"op":"drain"}|});
        ])
  in
  QCheck.Test.make ~count:300 ~name:"accepted requests are conserved to a terminal line"
    (QCheck.make
       ~print:QCheck.Print.(pair bool (list (pair int string)))
       QCheck.Gen.(pair bool (list_size (int_bound 40) (pair (int_bound 2) line_gen))))
    (fun (forced_drain, lines) ->
      fixed_clock := 1000.;
      let daemon =
        make_daemon ~queue_capacity:6 ~epoch_requests:3
          ~drain_timeout_seconds:(if forced_drain then 0. else 30.)
          ~quotas:[ ("acme", { Admission.default_quota with max_queued = Some 2 }) ]
          ()
      in
      let responses =
        List.concat_map
          (fun (client, line) -> fst (Daemon.handle_line daemon ~client line))
          (lines @ [ (0, {|{"op":"shutdown"}|}) ])
      in
      let balance = Hashtbl.create 16 in
      let shift key d =
        Hashtbl.replace balance key (d + Option.value ~default:0 (Hashtbl.find_opt balance key))
      in
      let accepted = ref 0 and completed = ref 0 and expired = ref 0 in
      let duplicates = ref 0 and forced = ref 0 in
      List.iter
        (fun (client, r) ->
          let terminal n id =
            incr n;
            shift (client, id) (-1)
          in
          match r with
          | Protocol.Accepted { id; _ } ->
              incr accepted;
              shift (client, id) 1
          | Protocol.Completed { id; _ } -> terminal completed id
          | Protocol.Deadline_expired { id; _ } -> terminal expired id
          | Protocol.Duplicate_id { id; _ } -> terminal duplicates id
          | Protocol.Drain_expired { id; _ } -> terminal forced id
          | _ -> ())
        responses;
      let counter = Snapshot.counter_value (Daemon.metrics daemon) in
      Hashtbl.fold (fun _ n ok -> ok && n = 0) balance true
      && counter "serve.accepted_total" = !accepted
      && counter "serve.epoch_requests_total" = !completed
      && counter "serve.rejected_deadline_total" = !expired
      && counter "serve.rejected_duplicate_total" = !duplicates
      && counter "serve.drain_forced_total" = !forced
      && !accepted = !completed + !expired + !duplicates + !forced
      && Daemon.queue_depth daemon = 0)

(* Determinism: Engine.submit (single epoch) is bit-identical to
   Engine.run — decisions, counters, rendered aggregate — including
   under domains=4 and with a deploy stage under a fixed seed. *)

let decision_fingerprint (d : Obs.Trace.decision) =
  let verdict =
    match d.Obs.Trace.verdict with
    | Obs.Trace.Satisfied { workforce; strategies } ->
        Printf.sprintf "satisfied %h [%s]" workforce (String.concat ";" strategies)
    | Obs.Trace.Triaged { quality; cost; latency; distance } ->
        Printf.sprintf "triaged %h/%h/%h d=%h" quality cost latency distance
    | Obs.Trace.Rejected { binding } -> "rejected " ^ binding
  in
  Printf.sprintf "%d %s %s" d.Obs.Trace.request_id d.Obs.Trace.label verdict

let counter_fingerprint snapshot =
  List.filter_map
    (fun ({ Snapshot.value; _ } as entry) ->
      match value with
      | Snapshot.Counter v ->
          Some (Printf.sprintf "%s=%d" (Snapshot.series_name entry) v)
      | _ -> None)
    snapshot

(* [snapshot] and [trace] are the metrics and trace the epoch left:
   the registry and trace each side was given. *)
let report_fingerprint (report : Engine.report) snapshot trace =
  let aggregate = Format.asprintf "%a" Aggregator.pp_report report.Engine.aggregate in
  let deployed =
    List.map
      (fun (d : Engine.deployed) ->
        Printf.sprintf "%d %s %s/%d" (Request.id d.Engine.request)
          d.Engine.strategy.Model.Strategy.label
          (match d.Engine.outcome with
          | Engine.Completed r -> Printf.sprintf "workers=%d" r.Stratrec_crowdsim.Campaign.workers_hired
          | Engine.Rejected reason -> Engine.rejection_reason reason)
          (List.length d.Engine.attempts))
      report.Engine.deployed
  in
  ( aggregate,
    List.map decision_fingerprint (Obs.Trace.decisions trace),
    counter_fingerprint snapshot,
    deployed )

let run_vs_submit ~domains ~deploy () =
  let availability, strategies, requests = paper_inputs () in
  let make_config rng =
    let config = Engine.with_domains Engine.default_config domains in
    if not deploy then config
    else
      Engine.with_deploy config
        (Some
           {
             Engine.platform = Stratrec_crowdsim.Platform.create rng ~population:200;
             kind = Stratrec_crowdsim.Task_spec.Sentence_translation;
             window = Stratrec_crowdsim.Window.Weekend;
             capacity = 5;
             faults = Stratrec_resilience.Fault.make ~no_show:0.4 ();
             resilience =
               Stratrec_resilience.Degrade.with_retries Stratrec_resilience.Degrade.resilient 2;
           })
  in
  let run_fp =
    let rng = Stratrec_util.Rng.create 42 in
    let metrics = Obs.Registry.create () and trace = Obs.Trace.create () in
    match
      Engine.run
        ~config:(Engine.with_trace (Engine.with_metrics (make_config rng) metrics) trace)
        ~rng:(Stratrec_util.Rng.create 7) ~availability ~strategies ~requests ()
    with
    | Ok report -> report_fingerprint report (Obs.Registry.snapshot metrics) trace
    | Error e -> Alcotest.failf "run failed: %s" (Engine.error_message e)
  in
  let submit_fp =
    let rng = Stratrec_util.Rng.create 42 in
    let trace = Obs.Trace.create () in
    match
      Engine.create
        ~config:(Engine.with_trace (make_config rng) trace)
        ~rng:(Stratrec_util.Rng.create 7) ~availability ~strategies ()
    with
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
    | Ok session -> (
        match Engine.submit session (List.map Request.of_deployment (Array.to_list requests)) with
        | Ok report ->
            let snapshot = Engine.session_metrics session in
            Engine.close session;
            report_fingerprint report snapshot trace
        | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e))
  in
  let check_part name proj =
    Alcotest.(check (list string)) name (proj run_fp) (proj submit_fp)
  in
  let first (a, _, _, _) = [ a ] and second (_, b, _, _) = b in
  let third (_, _, c, _) = c and fourth (_, _, _, d) = d in
  check_part "rendered aggregate" first;
  check_part "decisions" second;
  check_part "counters" third;
  check_part "deploy outcomes" fourth

let test_submit_equals_run () = run_vs_submit ~domains:1 ~deploy:false ()
let test_submit_equals_run_domains () = run_vs_submit ~domains:4 ~deploy:false ()
let test_submit_equals_run_deploy () = run_vs_submit ~domains:1 ~deploy:true ()

(* The daemon epoch reproduces Engine.run outcome-for-outcome. *)
let test_daemon_epoch_matches_run () =
  let availability, strategies, requests = paper_inputs () in
  let expected =
    match Engine.run ~availability ~strategies ~requests () with
    | Ok report ->
        Array.to_list
          (Array.map
             (fun (_, outcome) -> Protocol.outcome_of_aggregator outcome)
             report.Engine.aggregate.Aggregator.outcomes)
    | Error e -> Alcotest.failf "run failed: %s" (Engine.error_message e)
  in
  let daemon = make_daemon ~epoch_requests:(Array.length requests) () in
  let lines =
    Array.to_list
      (Array.map
         (fun (d : Model.Deployment.t) ->
           submit_line ~id:d.Model.Deployment.id
             ~params:
               ( d.Model.Deployment.params.Model.Params.quality,
                 d.Model.Deployment.params.Model.Params.cost,
                 d.Model.Deployment.params.Model.Params.latency )
             ~k:d.Model.Deployment.k ())
         requests)
  in
  let actual =
    List.filter_map
      (function Protocol.Completed { outcome; _ } -> Some outcome | _ -> None)
      (drive daemon lines)
  in
  Alcotest.(check int) "all requests answered" (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      let render o = String.trim (Protocol.render
        (Protocol.Completed
           { id = 0; tenant = ""; epoch = 1; outcome = o; deployed = None; lineage = None }))
      in
      Alcotest.(check string) "outcome identical to one-shot run" (render e) (render a))
    expected actual;
  (* the daemon's aggregator counters match a one-shot run's *)
  let m = Daemon.metrics daemon in
  Alcotest.(check int) "requests counted" (Array.length requests)
    (Snapshot.counter_value m "aggregator.requests_total");
  Alcotest.(check int) "one epoch" 1 (Daemon.epochs daemon)

(* Session lifecycle: epochs accumulate, close is terminal. *)
let test_session_lifecycle () =
  let availability, strategies, requests = paper_inputs () in
  let session =
    match Engine.create ~availability ~strategies () with
    | Ok s -> s
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
  in
  let batch = List.map Request.of_deployment (Array.to_list requests) in
  let submit () =
    match Engine.submit session batch with
    | Ok report -> report
    | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
  in
  let r1 = submit () in
  let r2 = submit () in
  Alcotest.(check int) "first epoch" 1 r1.Engine.epoch;
  Alcotest.(check int) "second epoch" 2 r2.Engine.epoch;
  Alcotest.(check int) "session counts epochs" 2 (Engine.epochs session);
  Alcotest.(check int)
    "registry accumulates across epochs"
    (2 * Array.length requests)
    (Snapshot.counter_value (Engine.session_metrics session) "aggregator.requests_total");
  Alcotest.(check bool) "open" false (Engine.closed session);
  Engine.close session;
  Alcotest.(check bool) "closed" true (Engine.closed session);
  (match Engine.submit session batch with
  | Error `Session_closed -> ()
  | Ok _ -> Alcotest.fail "submit after close must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.error_message e));
  match Engine.submit ~deadline_hours:0. session batch with
  | Error `Session_closed -> ()
  | _ -> Alcotest.fail "closed wins over validation"

(* A full decision buffer keeps the first decisions it saw: after three
   epochs, capacity 5 holds the first epoch's three and two of the
   second's. *)
let test_decisions_at_capacity () =
  let availability, strategies, requests = paper_inputs () in
  let trace = Obs.Trace.create ~capacity:5 () in
  let config = Engine.with_trace Engine.default_config trace in
  let session =
    match Engine.create ~config ~availability ~strategies () with
    | Ok s -> s
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
  in
  let batch = List.map Request.of_deployment (Array.to_list requests) in
  for _ = 1 to 3 do
    match Engine.submit session batch with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
  done;
  Alcotest.(check (list string)) "the first five decisions"
    [ "d3"; "d1"; "d2"; "d3"; "d1" ]
    (List.map (fun d -> d.Obs.Trace.label) (Obs.Trace.decisions trace));
  Engine.close session

(* An epoch's cost does not grow with the registry: a report copies none
   of it. The caller's registry holds 1,000 extra counter series on one
   side and none on the other; after a warm-up epoch, the second submit
   allocates the same on both, to within 256 minor words. *)
let test_epoch_cost_flat_in_registry () =
  let availability, strategies, requests = paper_inputs () in
  let batch = List.map Request.of_deployment (Array.to_list requests) in
  let second_submit_words ~extra =
    let metrics = Obs.Registry.create () in
    for i = 1 to extra do
      Obs.Registry.incr (Obs.Registry.counter metrics (Printf.sprintf "extra.series_%d_total" i))
    done;
    let config = Engine.with_metrics Engine.default_config metrics in
    match Engine.create ~config ~availability ~strategies () with
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
    | Ok session ->
        let submit () =
          match Engine.submit session batch with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
        in
        submit ();
        let words = Gc.minor_words () in
        submit ();
        let words = Gc.minor_words () -. words in
        Engine.close session;
        words
  in
  let empty = second_submit_words ~extra:0 in
  let full = second_submit_words ~extra:1000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words with 1,000 extra series against %.0f without" full empty)
    true
    (Float.abs (full -. empty) <= 256.)

(* A live registry costs a served request about what Registry.noop
   does: each instrument is resolved once per registry, and its updates
   allocate nothing. A cached session over a 200-strategy catalog
   replays 40 demanding shapes, as perfbench's zipf-hot stream does;
   after warm-up epochs have cached every shape, the same 50 epochs
   allocate at most 96 minor words per request more on a live registry
   (reading the wall clock) than on Registry.noop. *)
let test_live_registry_costs_noop () =
  let rng = Stratrec_util.Rng.create 7 in
  let strategies =
    Model.Workload.strategies (Stratrec_util.Rng.create 2020) ~n:200
      ~kind:Model.Workload.Uniform
  in
  let availability = Model.Availability.certain 0.75 in
  let shapes =
    Array.init 40 (fun _ ->
        let quality = Stratrec_util.Rng.uniform rng ~lo:0.5 ~hi:1. in
        let cost = Stratrec_util.Rng.uniform rng ~lo:0. ~hi:0.6 in
        Model.Params.make ~quality ~cost ~latency:(Stratrec_util.Rng.uniform rng ~lo:0. ~hi:0.6))
  in
  let epoch e shape =
    List.init 8 (fun j -> Request.make ~id:((8 * e) + j + 1) ~params:shapes.(shape j) ~k:2 ())
  in
  let warm = Array.init 5 (fun e -> epoch e (fun j -> (8 * e) + j)) in
  let measured = Array.init 50 (fun e -> epoch (e + 5) (fun _ -> Stratrec_util.Rng.int rng 40)) in
  let words_per_request metrics =
    let config =
      Engine.with_cache
        (Engine.with_metrics Engine.default_config metrics)
        (Some Stratrec.Triage_cache.default_config)
    in
    match Engine.create ~config ~availability ~strategies () with
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
    | Ok session ->
        let submit batch =
          match Engine.submit session batch with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
        in
        Array.iter submit warm;
        Array.iter submit measured;
        let words = Gc.minor_words () in
        Array.iter submit measured;
        let words = Gc.minor_words () -. words in
        Engine.close session;
        words /. 400.
  in
  let live = words_per_request (Obs.Registry.create ~clock:Obs.Registry.wall_clock ()) in
  let noop = words_per_request Obs.Registry.noop in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per request on a live registry against %.1f on noop" live noop)
    true
    (live -. noop <= 96.)

(* A session records spans and decisions only into a trace its caller
   passes. After warm-up epochs, a submit on a session created without
   [with_trace] allocates exactly the minor words of the same submit on
   a session given [Trace.noop]. Both registries read a fixed clock, so
   no timing reaches what is measured. *)
let test_no_trace_unless_passed () =
  let availability, strategies, requests = paper_inputs () in
  let batch = List.map Request.of_deployment (Array.to_list requests) in
  let submit_words config =
    let metrics = Obs.Registry.create ~clock:(Fun.const 0.) () in
    match Engine.create ~config:(Engine.with_metrics config metrics) ~availability ~strategies () with
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
    | Ok session ->
        let submit () =
          match Engine.submit session batch with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "submit failed: %s" (Engine.error_message e)
        in
        for _ = 1 to 3 do
          submit ()
        done;
        let words = Gc.minor_words () in
        submit ();
        let words = Gc.minor_words () -. words in
        Engine.close session;
        words
  in
  let noop = submit_words (Engine.with_trace Engine.default_config Obs.Trace.noop) in
  Alcotest.(check (float 0.)) "minor words of a submit, against Trace.noop's" noop
    (submit_words Engine.default_config)

let test_submit_deadline_validation () =
  let availability, strategies, requests = paper_inputs () in
  let session =
    match Engine.create ~availability ~strategies () with
    | Ok s -> s
    | Error e -> Alcotest.failf "create failed: %s" (Engine.error_message e)
  in
  let batch = List.map Request.of_deployment (Array.to_list requests) in
  (match Engine.submit ~deadline_hours:0. session batch with
  | Error (`Invalid_request _) -> ()
  | _ -> Alcotest.fail "zero budget must be rejected");
  (match Engine.submit ~deadline_hours:(-1.) session batch with
  | Error (`Invalid_request _) -> ()
  | _ -> Alcotest.fail "negative budget must be rejected");
  match Engine.submit ~deadline_hours:24. session batch with
  | Ok _ -> Engine.close session
  | Error e -> Alcotest.failf "positive budget rejected: %s" (Engine.error_message e)

(* Request codecs *)

let test_request_codecs () =
  let r =
    Request.make ~id:3 ~tenant:"acme" ~deadline_hours:24.
      ~params:(Model.Params.make ~quality:0.9 ~cost:0.2 ~latency:0.3) ~k:5 ()
  in
  Alcotest.(check string)
    "compact string" "id=3;tenant=acme;params=0.9,0.2,0.3;k=5;deadline=24"
    (Request.to_string r);
  (match Request.of_string (Request.to_string r) with
  | Ok r' -> Alcotest.(check bool) "string round-trip" true (Request.equal r r')
  | Error e -> Alcotest.failf "of_string failed: %s" e);
  (match Request.of_json (Request.to_json r) with
  | Ok r' -> Alcotest.(check bool) "json round-trip" true (Request.equal r r')
  | Error e -> Alcotest.failf "of_json failed: %s" e);
  (match Request.of_string "id=1;params=0.5,0.5,0.5" with
  | Ok r ->
      Alcotest.(check string) "defaults" "d1" (Request.label r);
      Alcotest.(check int) "k defaults to 1" 1 (Request.k r);
      Alcotest.(check string) "anonymous tenant" "" (Request.tenant r)
  | Error e -> Alcotest.failf "minimal spelling failed: %s" e);
  (match Request.of_string "id=1;params=0.5,0.5,0.5;surprise=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown keys must be rejected");
  match Request.of_string "params=0.5,0.5,0.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing id must be rejected"

(* The response writer against the tree renderer it replaced, on every
   constructor. Ints stay below 1e15, where the tree renderer printed
   them as integers too. *)
let gen_response =
  let open QCheck.Gen in
  let nasty = oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "\b"; "\012"; "\x01"; "\x1f"; "\x7f"; "\xc3\xa9"; "\xf0\x9f\x98\x80"; "/" ] in
  let str =
    frequency
      [
        (1, return "");
        (3, string_size ~gen:printable (0 -- 8));
        (2, map (String.concat "") (list_size (1 -- 6) (oneof [ nasty; string_size ~gen:printable (0 -- 3) ])));
      ]
  in
  let float =
    frequency
      [
        (3, float_range (-1e6) 1e6);
        (2, map Int64.float_of_bits ui64 >|= fun f -> if Float.is_finite f then f else 0.5);
        ( 2,
          oneofl
            [
              0.; -0.; 5e-324; -5e-324; 2.2250738585072009e-308; 1e-310; 1e15 -. 0.5;
              -.(1e15 -. 0.5); 999999999999999.9; 1e15; -1e15; 1e15 +. 2.; 0.1; 1. /. 3.;
              Float.max_float;
            ] );
        (1, map float_of_int (int_range (-1_000_000_000) 1_000_000_000));
      ]
  in
  let int =
    frequency [ (3, int_range (-3) 100); (1, int_range (-999_999_999_999_999) 999_999_999_999_999) ]
  in
  let opt g = option g in
  let outcome =
    oneof
      [
        map2
          (fun strategies workforce -> Protocol.Satisfied { strategies; workforce })
          (list_size (0 -- 3) str) float;
        map2
          (fun (quality, cost, latency) distance ->
            Protocol.Alternative
              { params = Model.Params.make_unchecked ~quality ~cost ~latency; distance })
          (triple float float float) float;
        return Protocol.Workforce_limited;
        return Protocol.No_alternative;
      ]
  in
  let lineage =
    map
      (fun (queue_seconds, triage_seconds, deploy_seconds, total_seconds) ->
        { Protocol.queue_seconds; triage_seconds; deploy_seconds; total_seconds })
      (quad float float float float)
  in
  let slo_status =
    map
      (fun ((slo, slo_tenant, burning), (fast_burn_rate, slow_burn_rate, budget_remaining)) ->
        { Protocol.slo; slo_tenant; burning; fast_burn_rate; slow_burn_rate; budget_remaining })
      (pair (triple str (opt str) bool) (triple float float float))
  in
  let state = oneofl [ Protocol.Ready; Protocol.Degraded; Protocol.Unhealthy ] in
  oneof
    [
      map3 (fun id tenant queue_depth -> Protocol.Accepted { id; tenant; queue_depth }) int str int;
      map3 (fun id tenant queue_depth -> Protocol.Queue_full { id; tenant; queue_depth }) int str int;
      map2
        (fun (id, tenant) (queued, limit) -> Protocol.Quota_exceeded { id; tenant; queued; limit })
        (pair int str) (pair int int);
      map2
        (fun (id, tenant) (rung, reason) -> Protocol.Overloaded { id; tenant; rung; reason })
        (pair int str) (pair int str);
      map2 (fun id tenant -> Protocol.Draining { id; tenant }) int str;
      map3
        (fun id tenant waited_seconds -> Protocol.Drain_expired { id; tenant; waited_seconds })
        int str float;
      map
        (fun (answered, expired, forced, epochs) ->
          Protocol.Drained { answered; expired; forced; epochs })
        (quad int int int int);
      map3
        (fun id tenant waited_seconds -> Protocol.Deadline_expired { id; tenant; waited_seconds })
        int str float;
      map2 (fun id tenant -> Protocol.Duplicate_id { id; tenant }) int str;
      map2
        (fun (id, tenant, epoch) (outcome, deployed, lineage) ->
          Protocol.Completed { id; tenant; epoch; outcome; deployed; lineage })
        (triple int str int)
        (triple outcome (opt str) (opt lineage));
      map3
        (fun epoch admitted expired -> Protocol.Epoch_closed { epoch; admitted; expired })
        int int int;
      map3
        (fun (state, scope, reasons, breaker) (queue_depth, queue_capacity, slo_burning, epochs)
             (brownout_rung, draining, io_errors, cache_hit_ratio) ->
          Protocol.Health_status
            {
              state;
              scope;
              reasons;
              breaker;
              queue_depth;
              queue_capacity;
              slo_burning;
              epochs;
              brownout_rung;
              draining;
              io_errors;
              cache_hit_ratio;
            })
        (quad state (opt str) (list_size (0 -- 3) str) (opt str))
        (quad int int int int)
        (quad int bool int (opt float));
      map (fun slos -> Protocol.Slo_report slos) (list_size (0 -- 3) slo_status);
      map2 (fun path records -> Protocol.Dumped { path; records }) str int;
      map (fun path -> Protocol.Unknown_endpoint { path }) str;
      return Protocol.Pong;
      map (fun clock_hours -> Protocol.Ticked { clock_hours }) float;
      return Protocol.Shutting_down;
      map (fun reason -> Protocol.Error_ { reason }) str;
      map (fun text -> Protocol.Metrics_text text) str;
    ]

let prop_render_matches_tree =
  QCheck.Test.make ~count:2000 ~name:"render = the tree renderer, on every constructor"
    (QCheck.make ~print:Serve_ref.render gen_response)
    (fun response ->
      let expected = Serve_ref.render response in
      let buffer = Buffer.create 16 in
      Buffer.add_string buffer "queued\n";
      Protocol.render_into buffer response;
      Protocol.render response = expected && Buffer.contents buffer = "queued\n" ^ expected)

(* A non-finite float raises, as it did in the tree printer. *)
let test_render_non_finite () =
  List.iter
    (fun f ->
      let response = Protocol.Ticked { clock_hours = f } in
      Alcotest.check_raises "tree renderer" (Invalid_argument "Json.to_string: non-finite number")
        (fun () -> ignore (Serve_ref.render response));
      Alcotest.check_raises "writer" (Invalid_argument "Json.to_string: non-finite number")
        (fun () -> ignore (Protocol.render response)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Line framing by search against the per-byte framer, on any chunking
   of a stream that holds empty, exact-limit and oversized lines. After
   the last chunk a newline flushes what each still buffers: the same
   line, or the same drop. *)
let prop_lines_match_per_byte =
  let gen =
    QCheck.Gen.(
      let line = frequency [ (3, string_size ~gen:printable (0 -- 10)); (1, string_size ~gen:printable (10 -- 30)) ] in
      map3
        (fun (max_line, lines) tail cuts ->
          let stream = String.concat "\n" lines ^ tail in
          let n = String.length stream in
          let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
          let rec chunks from = function
            | [] -> [ String.sub stream from (n - from) ]
            | c :: rest -> String.sub stream from (c - from) :: chunks c rest
          in
          (max_line, chunks 0 cuts))
        (pair (int_range 0 12) (list_size (0 -- 12) line))
        (oneof [ return ""; return "\n"; string_size ~gen:printable (0 -- 20) ])
        (list_size (0 -- 10) nat))
  in
  QCheck.Test.make ~count:1000 ~name:"Lines.feed = the per-byte framer, any chunking"
    (QCheck.make ~print:QCheck.Print.(pair int (list string)) gen)
    (fun (max_line, chunks) ->
      let fast = Serve.Server.Lines.create () and slow = Serve_ref.Lines.create () in
      List.for_all
        (fun chunk ->
          Serve.Server.Lines.feed fast ~max_line chunk = Serve_ref.Lines.feed slow ~max_line chunk)
        (chunks @ [ "\n" ]))

let () =
  Alcotest.run "serve"
    [
      ( "admission",
        [
          Alcotest.test_case "fair round-robin drain" `Quick test_admission_fairness;
          Alcotest.test_case "bounded with typed backpressure" `Quick
            test_admission_backpressure;
          Alcotest.test_case "deadline expiry and budgets" `Quick test_admission_deadlines;
          Alcotest.test_case "weighted deficit round-robin" `Quick
            test_admission_weighted_fairness;
          Alcotest.test_case "per-tenant quota caps" `Quick test_admission_quota_caps;
          Alcotest.test_case "quota codec round-trip" `Quick test_admission_quota_codec;
          Alcotest.test_case "evict-all force-close sweep" `Quick test_admission_evict_all;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "render" `Quick test_protocol_render;
          Alcotest.test_case "health/slo/unknown endpoints" `Quick test_protocol_endpoints;
          Alcotest.test_case "non-finite floats raise" `Quick test_render_non_finite;
          Tq.to_alcotest prop_render_matches_tree;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "chaos flood yields typed errors" `Quick test_daemon_chaos_flood;
          Alcotest.test_case "backpressure and queue deadlines" `Quick
            test_daemon_backpressure_and_deadlines;
          Alcotest.test_case "duplicate ids bounced individually" `Quick
            test_daemon_duplicate_ids;
          Alcotest.test_case "shutdown drains everything" `Quick test_daemon_shutdown_drains;
          Alcotest.test_case "unknown GET path answered typed" `Quick
            test_daemon_unknown_endpoint;
          Alcotest.test_case "completed responses carry lineage" `Quick test_daemon_lineage;
          Alcotest.test_case "health rubric and slo report" `Quick test_daemon_health_and_slo;
          Alcotest.test_case "scrape carries window/slo/oversized series" `Quick
            test_daemon_scrape_surfaces;
          Alcotest.test_case "oversized-line guard and counter" `Quick
            test_lines_guard_and_counter;
          Alcotest.test_case "epoch matches one-shot run" `Quick
            test_daemon_epoch_matches_run;
          Alcotest.test_case "quota rejections typed and counted" `Quick
            test_daemon_quota_rejection;
          Alcotest.test_case "brownout ladder escalates, sheds, recovers" `Quick
            test_daemon_brownout_ladder;
          Alcotest.test_case "brownout escalation logs the window p99" `Quick
            test_daemon_brownout_escalation_log;
          Alcotest.test_case "drain answers everything then refuses" `Quick
            test_daemon_drain;
          Alcotest.test_case "zero-budget drain force-closes typed" `Quick
            test_daemon_drain_forced;
          Alcotest.test_case "4x overload flood: typed, fair, no starvation" `Quick
            test_daemon_overload_flood;
          Tq.to_alcotest prop_daemon_flood_typed;
          Tq.to_alcotest prop_daemon_conservation;
        ] );
      ( "transport",
        [
          Alcotest.test_case "pump survives partial writes/EINTR/dribble" `Quick
            test_pump_under_faults;
          Alcotest.test_case "select loop serves through injected faults" `Quick
            test_serve_socket_chaos;
          Alcotest.test_case "a peer that never reads is evicted" `Quick
            test_serve_slow_consumer;
          Alcotest.test_case "a lagging reader gets everything by shutdown" `Quick
            test_serve_lagging_reader;
          Alcotest.test_case "descriptors beyond select's limit refused" `Quick
            test_serve_fd_limit;
          Tq.to_alcotest prop_lines_match_per_byte;
        ] );
      ( "engine session",
        [
          Alcotest.test_case "submit = run (bit-identical)" `Quick test_submit_equals_run;
          Alcotest.test_case "submit = run under domains=4" `Quick
            test_submit_equals_run_domains;
          Alcotest.test_case "submit = run with deploy stage" `Quick
            test_submit_equals_run_deploy;
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "decisions at trace capacity" `Quick test_decisions_at_capacity;
          Alcotest.test_case "epoch cost flat in registry size" `Quick
            test_epoch_cost_flat_in_registry;
          Alcotest.test_case "a live registry costs what noop does" `Quick
            test_live_registry_costs_noop;
          Alcotest.test_case "no trace unless the caller passes one" `Quick
            test_no_trace_unless_passed;
          Alcotest.test_case "deadline budget validation" `Quick
            test_submit_deadline_validation;
        ] );
      ( "request",
        [ Alcotest.test_case "codecs round-trip" `Quick test_request_codecs ] );
    ]
