(* Chaos property harness (DESIGN.md §5d acceptance): randomized fault
   plans through the full Engine.run pipeline. The engine must never
   raise, every satisfied request must end in a completed campaign or a
   typed rejection with a coherent attempt history, and the same seed
   must reproduce the same report bit for bit. *)

module Model = Stratrec_model
module Sim = Stratrec_crowdsim
module Res = Stratrec_resilience
module Engine = Stratrec.Engine
module Rng = Stratrec_util.Rng

(* One randomized scenario, fully derived from an integer seed: the
   workload, the platform, the fault plan and the resilience knobs all
   come from the same generator stream. The run records into
   [metrics]. *)
let run_scenario ?(metrics = Stratrec_obs.Registry.create ()) seed =
  let rng = Rng.create seed in
  let strategies = Model.Workload.strategies rng ~n:12 ~kind:Model.Workload.Uniform in
  let requests = Model.Workload.requests rng ~m:6 ~k:2 in
  let faults = Res.Fault.random rng in
  let retries = Rng.int rng 3 in
  let window = Rng.choose rng (Array.of_list Sim.Window.all) in
  let platform = Sim.Platform.create rng ~population:(20 + Rng.int rng 60) in
  let resilience = Res.Degrade.with_retries Res.Degrade.resilient retries in
  let config =
    Engine.with_deploy (Engine.with_metrics Engine.default_config metrics)
      (Some
         {
           Engine.platform;
           kind = Sim.Task_spec.Sentence_translation;
           window;
           capacity = 1 + Rng.int rng 8;
           faults;
           resilience;
         })
  in
  let availability = Model.Availability.certain (0.3 +. Rng.float rng 0.7) in
  (faults, Engine.run ~config ~rng ~availability ~strategies ~requests ())

(* Never raises; always a well-formed outcome. *)
let coherent (report : Engine.report) =
  let satisfied = report.Engine.counts.Engine.satisfied in
  List.length report.Engine.deployed = satisfied
  && List.for_all
       (fun (d : Engine.deployed) ->
         let attempts = d.Engine.attempts in
         attempts <> []
         && (match attempts with
            | { Engine.rung = Res.Degrade.Primary; at_hours = 0.; _ } :: _ -> true
            | _ -> false)
         && List.for_all
              (fun (a : Engine.attempt) -> a.Engine.at_hours >= 0.)
              attempts
         &&
         match d.Engine.outcome with
         | Engine.Completed result ->
             (* The completing attempt is the last one and hired workers. *)
             result.Sim.Campaign.workers_hired > 0
             && (match List.rev attempts with
                | { Engine.result = Some last; _ } :: _ ->
                    last.Sim.Campaign.workers_hired = result.Sim.Campaign.workers_hired
                | _ -> false)
         | Engine.Rejected Engine.Breaker_open -> (
             (* A short-circuited attempt carries no campaign result. *)
             match List.rev attempts with
             | { Engine.result = None; _ } :: _ -> true
             | _ -> false)
         | Engine.Rejected Engine.Deadline_exhausted -> true
         | Engine.Rejected Engine.All_attempts_empty ->
             List.for_all
               (fun (a : Engine.attempt) ->
                 match a.Engine.result with
                 | Some r -> r.Sim.Campaign.workers_hired = 0
                 | None -> false)
               attempts)
       report.Engine.deployed

let prop_never_raises =
  QCheck.Test.make ~count:1000 ~name:"1000 random fault plans: outcome or typed rejection"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match run_scenario seed with
      | _, Ok report -> coherent report
      | _, Error e -> QCheck.Test.fail_reportf "typed error: %s" (Engine.error_message e)
      | exception e ->
          QCheck.Test.fail_reportf "engine raised: %s" (Printexc.to_string e))

(* Deterministic fingerprint of a report: everything except wall-clock
   timings. Floats print as %h (hex) so equality is bit-equality. *)
let fingerprint (report : Engine.report) =
  let b = Buffer.create 1024 in
  let c = report.Engine.counts in
  Buffer.add_string b
    (Printf.sprintf "counts:%d/%d/%d/%d/%d\n" c.Engine.requests c.Engine.satisfied
       c.Engine.alternatives c.Engine.workforce_limited c.Engine.no_alternative);
  List.iter
    (fun (d : Engine.deployed) ->
      Buffer.add_string b
        (Printf.sprintf "request %d via %s: " (Stratrec.Request.id d.Engine.request)
           d.Engine.strategy.Model.Strategy.label);
      (match d.Engine.outcome with
      | Engine.Completed r ->
          Buffer.add_string b
            (Printf.sprintf "completed workers=%d spent=%h measured=%h/%h/%h"
               r.Sim.Campaign.workers_hired r.Sim.Campaign.dollars_spent
               r.Sim.Campaign.measured.Model.Params.quality
               r.Sim.Campaign.measured.Model.Params.cost
               r.Sim.Campaign.measured.Model.Params.latency)
      | Engine.Rejected reason ->
          Buffer.add_string b ("rejected " ^ Engine.rejection_reason reason));
      List.iter
        (fun (a : Engine.attempt) ->
          Buffer.add_string b
            (Printf.sprintf "\n  %s %s at=%h workers=%s"
               (Res.Degrade.rung_label a.Engine.rung)
               a.Engine.strategy.Model.Strategy.label a.Engine.at_hours
               (match a.Engine.result with
               | Some r -> string_of_int r.Sim.Campaign.workers_hired
               | None -> "-")))
        d.Engine.attempts;
      Buffer.add_char b '\n')
    report.Engine.deployed;
  Buffer.contents b

let prop_bit_identical =
  QCheck.Test.make ~count:200 ~name:"same seed, same fault plan, same report"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match (run_scenario seed, run_scenario seed) with
      | (faults1, Ok a), (faults2, Ok b) ->
          faults1 = faults2 && String.equal (fingerprint a) (fingerprint b)
      | _ -> false)

(* Under chaos, the resilience counters must show up in the snapshot and
   agree with the attempt histories. *)
let test_chaos_metrics () =
  let rec find seed =
    if seed > 200 then Alcotest.fail "no faulted scenario found in 200 seeds"
    else
      let metrics = Stratrec_obs.Registry.create () in
      match run_scenario ~metrics seed with
      | faults, Ok report
        when (not (Res.Fault.is_none faults)) && report.Engine.deployed <> [] ->
          (report, Stratrec_obs.Registry.snapshot metrics)
      | _ -> find (seed + 1)
  in
  let report, snap = find 0 in
  let counter = Stratrec_obs.Snapshot.counter_value snap in
  let attempts =
    List.fold_left
      (fun acc (d : Engine.deployed) -> acc + List.length d.Engine.attempts)
      0 report.Engine.deployed
  in
  Alcotest.(check int) "attempts counter agrees with histories" attempts
    (counter "resilience.attempts_total");
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (match Stratrec_obs.Snapshot.find snap name with
        | Some (Stratrec_obs.Snapshot.Counter _) -> true
        | _ -> false))
    [
      "resilience.retries_total";
      "resilience.fallbacks_total";
      "resilience.breaker_open_total";
      "faults.injected_total";
    ]

let () =
  Alcotest.run "chaos"
    [
      ( "unit",
        [ Alcotest.test_case "resilience counters under chaos" `Quick test_chaos_metrics ] );
      ("properties", List.map Tq.to_alcotest [ prop_never_raises; prop_bit_identical ]);
    ]
