(* Bechamel micro-benchmarks: one Test.make per table/figure kernel, plus
   the hot substrate operations. Estimates are monotonic-clock ns per run
   via OLS regression. *)

open Bechamel
open Toolkit
module Model = Stratrec_model
module Workforce = Model.Workforce
module Rng = Stratrec_util.Rng

let paper_example_test =
  let strategies = Model.Paper_example.strategies () in
  let requests = Model.Paper_example.requests () in
  let availability = Model.Paper_example.availability () in
  Test.make ~name:"table1:aggregator-example1"
    (Staged.stage (fun () ->
         ignore (Stratrec.Aggregator.run ~availability ~strategies ~requests ())))

let adpar_trace_test =
  let strategies = Model.Paper_example.strategies () in
  let d2 = Model.Paper_example.request 2 in
  Test.make ~name:"tables2-5:adpar-trace"
    (Staged.stage (fun () -> ignore (Stratrec.Adpar.exact_with_trace ~strategies d2)))

let table6_test =
  let rng = Rng.create 5 in
  let observations =
    Array.init 30 (fun i ->
        let w = 0.6 +. (0.4 *. float_of_int i /. 29.) in
        ( w,
          Stratrec_crowdsim.Outcome.measure rng ~kind:Stratrec_crowdsim.Task_spec.Sentence_translation
            ~combo:(List.hd Model.Dimension.all_combos) ~availability:w () ))
  in
  Test.make ~name:"table6:linear-model-fit"
    (Staged.stage (fun () -> ignore (Model.Linear_model.fit ~observations)))

let fig13_session_test =
  let rng = Rng.create 6 in
  let platform = Stratrec_crowdsim.Platform.create rng ~population:300 in
  let task = List.hd Stratrec_crowdsim.Task_spec.translation_samples in
  let combo = Option.get (Model.Dimension.combo_of_label "SIM-COL-CRO") in
  let deployment =
    {
      Stratrec_crowdsim.Campaign.task;
      combo;
      window = Stratrec_crowdsim.Window.Early_week;
      capacity = 7;
      guided = false;
    }
  in
  Test.make ~name:"fig13:campaign-deploy"
    (Staged.stage (fun () ->
         ignore (Stratrec_crowdsim.Campaign.deploy platform rng deployment)))

let fig14_test =
  let rng = Rng.create 7 in
  Test.make ~name:"fig14:percent-satisfied"
    (Staged.stage (fun () ->
         ignore
           (Bench_common.percent_satisfied (Rng.copy rng) ~n:1000 ~m:10 ~k:10 ~w:0.5
              ~kind:Model.Workload.Uniform)))

let batch_setup n m k seed =
  let rng = Rng.create seed in
  let strategies = Model.Workload.strategies rng ~n ~kind:Model.Workload.Uniform in
  let requests = Model.Workload.requests rng ~m ~k in
  Workforce.compute ~rule:`Paper_equality ~requests ~strategies ()

let fig15_test =
  let matrix = batch_setup 30 20 10 8 in
  Test.make ~name:"fig15:batchstrat-throughput"
    (Staged.stage (fun () ->
         ignore
           (Stratrec.Batchstrat.run ~objective:Stratrec.Objective.Throughput
              ~aggregation:Workforce.Max_case ~available:0.5 matrix)))

let fig16_test =
  let matrix = batch_setup 30 20 10 9 in
  Test.make ~name:"fig16:batchstrat-payoff"
    (Staged.stage (fun () ->
         ignore
           (Stratrec.Batchstrat.run ~objective:Stratrec.Objective.Payoff
              ~aggregation:Workforce.Max_case ~available:0.5 matrix)))

let fig17_test =
  let rng = Rng.create 10 in
  let strategies = Model.Workload.strategies rng ~n:200 ~kind:Model.Workload.Uniform in
  let request = (Bench_common.hard_requests rng ~m:1 ~k:5).(0) in
  Test.make ~name:"fig17:adpar-exact-200"
    (Staged.stage (fun () -> ignore (Stratrec.Adpar.exact ~strategies request)))

let fig18_test =
  let rng = Rng.create 11 in
  let strategies = Model.Workload.strategies rng ~n:5000 ~kind:Model.Workload.Uniform in
  let request = (Bench_common.hard_requests rng ~m:1 ~k:5).(0) in
  Test.make ~name:"fig18:adpar-exact-5000"
    (Staged.stage (fun () -> ignore (Stratrec.Adpar.exact ~strategies request)))

let rtree_test =
  let rng = Rng.create 12 in
  let entries =
    List.init 1000 (fun i ->
        (Stratrec_geom.Point3.make (Rng.float rng 1.) (Rng.float rng 1.) (Rng.float rng 1.), i))
  in
  Test.make ~name:"substrate:rtree-bulk-load-1k"
    (Staged.stage (fun () -> ignore (Stratrec_geom.Rtree.bulk_load entries)))

(* The serve codec, per call and without a socket: a submit line shaped
   like perfbench's, a completed response with lineage, and the
   exposition of a warm daemon's registry. *)
module Serve = Stratrec_serve

let parse_submit_test =
  let line = {|{"op":"submit","id":123457,"params":"0.7234,0.1821,0.3310","k":2}|} in
  Test.make ~name:"serve:parse-submit" (Staged.stage (fun () -> ignore (Serve.Protocol.parse line)))

let render_completed_test =
  let response =
    Serve.Protocol.Completed
      {
        id = 123457;
        tenant = "";
        epoch = 15433;
        outcome =
          Serve.Protocol.Alternative
            {
              params = Model.Params.make ~quality:0.6871 ~cost:0.2245 ~latency:0.3310;
              distance = 0.1152789142;
            };
        deployed = None;
        lineage =
          Some
            {
              Serve.Protocol.queue_seconds = 0.000183;
              triage_seconds = 4.91e-05;
              deploy_seconds = 0.;
              total_seconds = 0.0002321;
            };
      }
  in
  Test.make ~name:"serve:render-completed"
    (Staged.stage (fun () -> ignore (Serve.Protocol.render response)))

(* The registry a zipf-hot scrape reads (78 series): a daemon with
   stratrec-serve's default flags over an n=200 catalog, after 1024
   requests of 40 demanding shapes with a scrape and a health probe
   every 64. Built when the row runs, not when the suite loads. *)
let warm_snapshot () =
  let rng = Rng.create 2020 in
  let strategies = Model.Workload.strategies rng ~n:200 ~kind:Model.Workload.Uniform in
  let config =
    {
      Serve.Daemon.default_config with
      engine =
        Stratrec.Engine.with_cache Stratrec.Engine.default_config
          (Some Stratrec.Triage_cache.default_config);
    }
  in
  let daemon =
    match
      Serve.Daemon.create ~config ~availability:(Model.Availability.certain 0.75) ~strategies ()
    with
    | Ok daemon -> daemon
    | Error e -> failwith (Stratrec.Engine.error_message e)
  in
  let shapes =
    Array.init 40 (fun _ ->
        (Rng.uniform rng ~lo:0.5 ~hi:1., Rng.uniform rng ~lo:0. ~hi:0.6, Rng.uniform rng ~lo:0. ~hi:0.6))
  in
  let send line = ignore (Serve.Daemon.handle_line daemon ~client:0 line) in
  for id = 1 to 1024 do
    let q, c, l = shapes.(Rng.int rng 40) in
    send (Printf.sprintf {|{"op":"submit","id":%d,"params":"%.4f,%.4f,%.4f","k":2}|} id q c l);
    if id mod 64 = 0 then List.iter send [ "GET metrics"; "GET health" ]
  done;
  Serve.Daemon.metrics daemon

let openmetrics_scrape_test =
  Test.make_with_resource ~name:"serve:openmetrics-scrape" Test.uniq ~allocate:warm_snapshot
    ~free:ignore (Staged.stage Stratrec_obs.Snapshot.to_openmetrics)

(* What a served request records, per call: a counter and a span looked
   up by name, and a sliding-window observation. The registry and the
   window read a fixed clock, so the rows time the lookup and the
   update, not a clock read, as test_obs's allocation pins count them. *)
module Obs = Stratrec_obs

let obs_registry = Obs.Registry.create ~clock:(Fun.const 1.) ()

let counter_by_name_test =
  Test.make ~name:"obs:counter-by-name"
    (Staged.stage (fun () -> Obs.Registry.incr (Obs.Registry.counter obs_registry "bench.calls_total")))

let span_by_name_test =
  Test.make ~name:"obs:span-by-name"
    (Staged.stage (fun () ->
         ignore (Obs.Span.finish (Obs.Span.start obs_registry "bench.stage_seconds"))))

let window_observe_test =
  let window = Obs.Window.create ~clock:(Fun.const 5.) ~window_seconds:60. () in
  Test.make ~name:"obs:window-observe" (Staged.stage (fun () -> Obs.Window.observe window 1e-4))

let tests =
  Test.make_grouped ~name:"stratrec"
    [
      paper_example_test;
      adpar_trace_test;
      table6_test;
      fig13_session_test;
      fig14_test;
      fig15_test;
      fig16_test;
      fig17_test;
      fig18_test;
      rtree_test;
      parse_submit_test;
      render_completed_test;
      openmetrics_scrape_test;
      counter_by_name_test;
      span_by_name_test;
      window_observe_test;
    ]

let run () =
  Bench_common.section "Bechamel micro-benchmarks (monotonic clock, ns/run)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if !Bench_common.quick then 0.25 else 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Stratrec_util.Tabular.create ~columns:[ "benchmark"; "ns/run" ] in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, ols) ->
         let estimate =
           match Analyze.OLS.estimates ols with
           | Some (x :: _) -> Printf.sprintf "%.0f" x
           | Some [] | None -> "n/a"
         in
         Stratrec_util.Tabular.add_row table [ name; estimate ]);
  Bench_common.print_table ~title:"Bechamel micro-benchmarks" table
