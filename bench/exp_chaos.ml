(* Chaos experiment: the resilient deploy stage under adversarial fault
   plans (DESIGN.md §5d).

   Each row runs the full engine pipeline — recommend, triage, deploy —
   against one fault plan with the resilient degradation ladder on
   (retry, fallback, re-triage, circuit breaker) and reports how the
   batch degraded: completed vs. rejected deployments, attempts spent,
   faults injected and breaker trips. The seed is fixed, so the table is
   reproducible run to run. *)

module Tabular = Stratrec_util.Tabular
module Rng = Stratrec_util.Rng
module Model = Stratrec_model
module Sim = Stratrec_crowdsim
module Res = Stratrec_resilience
module Engine = Stratrec.Engine
module Obs = Stratrec_obs

let plans =
  [
    ("none", Res.Fault.none);
    ("no-show=0.5", Res.Fault.make ~no_show:0.5 ());
    ("dropout=0.6,straggler=0.5:2.5", Res.Fault.make ~dropout:0.6 ~straggler:(0.5, 2.5) ());
    ("flaky-qual=0.8", Res.Fault.make ~flaky_qualification:0.8 ());
    ("outage=weekend", Res.Fault.make ~outages:[ 0 ] ());
    ( "kitchen sink",
      Res.Fault.make ~no_show:0.7 ~dropout:0.5 ~straggler:(0.6, 3.) ~flaky_qualification:0.5
        ~outages:[ 1; 2 ] () );
  ]

let run_plan ~n ~m faults =
  let rng = Rng.create 2020 in
  let strategies = Model.Workload.strategies rng ~n ~kind:Model.Workload.Uniform in
  let requests = Model.Workload.requests rng ~m ~k:2 in
  let metrics = Obs.Registry.create () in
  let config =
    Engine.(
      with_deploy
        (with_trace (with_metrics default_config metrics) !Bench_common.trace)
        (Some
           {
             platform = Sim.Platform.create rng ~population:150;
             kind = Sim.Task_spec.Sentence_translation;
             window = Sim.Window.Weekend;
             capacity = 5;
             faults;
             resilience = Res.Degrade.with_retries Res.Degrade.resilient 2;
           }))
  in
  match
    Engine.run ~config ~rng
      ~availability:(Model.Availability.certain 0.75)
      ~strategies ~requests ()
  with
  | Error e -> failwith (Engine.error_message e)
  | Ok report -> (report, Obs.Registry.snapshot metrics)

let run () =
  Bench_common.section "Chaos - resilient deployment under fault injection";
  (* Floors keep the smoke iteration non-degenerate: the catalog must
     exceed the cardinality constraint for any request to be satisfied. *)
  let n = max 24 (Bench_common.scale 200) and m = max 3 (Bench_common.scale 30) in
  Printf.printf "catalog %d, batch %d, resilient ladder (2 retries, fallback, re-triage, breaker)\n\n"
    n m;
  let t =
    Tabular.create
      ~columns:
        [ "Fault plan"; "Satisfied"; "Completed"; "Rejected"; "Attempts"; "Injected"; "Trips" ]
  in
  List.iter
    (fun (label, faults) ->
      let report, snapshot = run_plan ~n ~m faults in
      let completed, rejected =
        List.partition
          (fun (d : Engine.deployed) ->
            match d.Engine.outcome with Engine.Completed _ -> true | Engine.Rejected _ -> false)
          report.Engine.deployed
      in
      let counter = Obs.Snapshot.counter_value snapshot in
      Tabular.add_row t
        [
          label;
          string_of_int report.Engine.counts.Engine.satisfied;
          string_of_int (List.length completed);
          string_of_int (List.length rejected);
          string_of_int (counter "resilience.attempts_total");
          string_of_int (counter "faults.injected_total");
          string_of_int (counter "resilience.breaker_trips_total");
        ])
    plans;
  Bench_common.print_table ~title:"degradation under fault plans" t
