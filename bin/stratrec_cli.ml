(* stratrec — command-line front end to the StratRec middle layer.

   Subcommands:
     recommend  batch deployment recommendation through Stratrec.Engine
     adpar      alternative-parameter recommendation for one request
     catalog    generate a strategy catalog and save it as JSON
     simulate   run the crowd-platform studies (availability / linearity /
                effectiveness)
     example    walk through the paper's Example 1

   Every failure path goes through Cmdliner ([Arg.conv] parsers and
   [Term.term_result]), so errors render uniformly on stderr with
   Cmdliner's conventional exit codes — no raw [Printf.eprintf]/[exit]
   error paths anywhere. *)

open Cmdliner
module Model = Stratrec_model
module Params = Model.Params
module Deployment = Model.Deployment
module Rng = Stratrec_util.Rng
module Sim = Stratrec_crowdsim
module Engine = Stratrec.Engine
module Obs = Stratrec_obs
module Resilience = Stratrec_resilience

let ( let* ) = Result.bind

(* Shared arguments. *)

let seed_arg =
  let doc = "Random seed (all runs are deterministic in the seed)." in
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc)

let k_arg =
  let doc = "Number of strategies to recommend per request." in
  Arg.(value & opt (Stratrec_conv.count ~min:1) 5 & info [ "k" ] ~docv:"K" ~doc)

let dist_arg =
  let doc = "Strategy parameter distribution: uniform or normal (5.2.2)." in
  Arg.(value
       & opt Stratrec_conv.dist_kind Model.Workload.Uniform
       & info [ "dist" ] ~docv:"DIST" ~doc)

let catalog_arg =
  let doc =
    "Load the strategy catalog from a JSON file (as written by $(b,catalog)) instead of \
     generating a synthetic one."
  in
  Arg.(value & opt (some file) None & info [ "catalog" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the run's metrics snapshot (triage counters, spans, gauges) to stdout in the \
     $(b,--metrics-format)."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_format_arg =
  let doc =
    "Snapshot format for $(b,--metrics) and $(b,--metrics-out): $(b,table) (human), \
     $(b,json) (the snapshot codec) or $(b,openmetrics) (Prometheus/OpenMetrics text \
     exposition, scrapeable)."
  in
  Arg.(value
       & opt (enum [ ("table", `Table); ("json", `Json); ("openmetrics", `Openmetrics) ]) `Table
       & info [ "metrics-format" ] ~docv:"FORMAT" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics snapshot to $(docv) in the $(b,--metrics-format); stdout printing \
     still requires $(b,--metrics)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Record profiling histograms for the run (wall seconds and GC allocation deltas \
     under $(b,engine.run.*)) and, with $(b,--domains) > 1, per-domain pool utilization \
     gauges ($(b,par.*)). Profiling never changes the report, counters, span tree or \
     decisions — output stays bit-identical."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let log_arg =
  let doc =
    "Write a structured JSON-lines run log (one self-describing object per line, \
     correlated to the active trace span) to $(docv); without a value, to stderr."
  in
  Arg.(value & opt ~vopt:(Some "-") (some string) None & info [ "log" ] ~docv:"FILE" ~doc)

(* The log destination owns the channel: the engine borrows the logger
   only for the duration of [f], so file-backed logs are flushed and
   closed before the CLI exits. *)
let with_log destination f =
  match destination with
  | None -> f Obs.Log.noop
  | Some "-" -> f (Obs.Log.create ~writer:(fun line -> Printf.eprintf "%s\n%!" line) ())
  | Some path -> (
      try
        Out_channel.with_open_text path (fun oc ->
            f
              (Obs.Log.create
                 ~writer:(fun line -> Out_channel.output_string oc (line ^ "\n"))
                 ()))
      with Sys_error message -> Error (`Msg message))

(* The engine config every run-producing subcommand starts from, built
   through the setter surface so new config fields can't break the CLI.
   The run records into the registry and trace passed here, which the
   subcommand reads afterwards for --metrics and --trace. *)
let engine_config ~metrics ~trace ~log ~deploy ~domains ~profile ~cache =
  Engine.(
    with_cache
      (with_log
         (with_profile
            (with_domains
               (with_deploy (with_trace (with_metrics default_config metrics) trace) deploy)
               domains)
            profile)
         log)
      cache)

let render_metrics format snapshot =
  match format with
  | `Table -> Stratrec_util.Tabular.render (Obs.Snapshot.to_table snapshot)
  | `Json -> Stratrec_util.Json.to_string ~indent:1 (Obs.Snapshot.to_json snapshot) ^ "\n"
  | `Openmetrics -> Obs.Snapshot.to_openmetrics snapshot

let emit_metrics ~show ~format ~out snapshot =
  (if show then
     match format with
     | `Table ->
         Stratrec_util.Tabular.print ~title:"run metrics" (Obs.Snapshot.to_table snapshot)
     | (`Json | `Openmetrics) as format -> print_string (render_metrics format snapshot));
  match out with
  | None -> Ok ()
  | Some path -> (
      try
        Ok
          (Out_channel.with_open_text path (fun oc ->
               Out_channel.output_string oc (render_metrics format snapshot)))
      with Sys_error message -> Error (`Msg message))

(* Positivity is validated by Engine.run (`Invalid_config), so the error
   message is the same whether the value came from the CLI or the API. *)
let domains_arg =
  let doc =
    "Shard the per-request triage across $(docv) domains (OCaml multicore). The output \
     is bit-identical to $(docv)=1; only wall-clock time changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Triage cache policy: $(b,off) (the default — one-shot runs rarely repeat shapes), \
     $(b,on) (the default capacity) or a positive LRU capacity. Cache hits replay \
     memoized BatchStrat rows and ADPaR results; the output is bit-identical to an \
     uncached run (only cache.* metrics are added)."
  in
  Arg.(value & opt Stratrec_conv.cache None & info [ "cache" ] ~docv:"POLICY" ~doc)

let trace_arg =
  let doc =
    "Record a hierarchical trace of the run. With $(docv), write Chrome trace-event JSON \
     to $(docv) (open it at ui.perfetto.dev or chrome://tracing); without a value, print \
     the span tree and per-request decision records to stderr."
  in
  Arg.(value & opt ~vopt:(Some "-") (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Deployment-stage arguments, shared by recommend and example. A fault
   plan or a retry budget implies the deploy stage — there is nothing to
   fault or retry without one. *)

let faults_arg =
  let doc =
    "Inject a fault plan into the deploy stage (implies $(b,--deploy)). $(docv) is a \
     comma-separated list of no-show=P, dropout=P, straggler=P:FACTOR, flaky-qual=P and \
     outage=WINDOW (weekend, early-week, late-week or *, joined by +), or none."
  in
  Arg.(value & opt Stratrec_conv.fault Resilience.Fault.none & info [ "faults" ] ~docv:"PLAN" ~doc)

let retries_arg =
  let doc =
    "Retries per satisfied request on top of the first attempt (implies $(b,--deploy)), \
     backing off exponentially in simulated window time."
  in
  Arg.(value & opt (Stratrec_conv.count ~min:0) 0 & info [ "retries" ] ~docv:"N" ~doc)

let deploy_arg =
  let doc =
    "Deploy every satisfied request's cheapest recommendation on a simulated platform, \
     walking the resilience ladder (retry, fallback, re-triage, circuit breaker) on \
     empty deployments."
  in
  Arg.(value & flag & info [ "deploy" ] ~doc)

let print_deployed (report : Engine.report) =
  match report.Engine.deployed with
  | [] -> ()
  | deployed ->
      Format.printf "deployments:@.";
      List.iter
        (fun (d : Engine.deployed) ->
          let attempts = List.length d.Engine.attempts in
          let plural = if attempts = 1 then "" else "s" in
          match d.Engine.outcome with
          | Engine.Completed result ->
              Format.printf "  %s: deployed %s after %d attempt%s (%d workers)@."
                (Stratrec.Request.label d.Engine.request)
                d.Engine.strategy.Model.Strategy.label attempts plural
                result.Sim.Campaign.workers_hired
          | Engine.Rejected reason ->
              Format.printf "  %s: rejected after %d attempt%s: %s@."
                (Stratrec.Request.label d.Engine.request) attempts plural
                (Engine.rejection_reason reason))
        deployed

(* "-" is the vopt sentinel for the valueless --trace form: render the tree
   to stderr so stdout stays parseable. A real path gets the Chrome JSON. *)
let emit_trace destination trace =
  match destination with
  | None -> Ok ()
  | Some "-" ->
      Format.eprintf "%a@?" Obs.Trace.pp trace;
      Ok ()
  | Some path -> (
      let rendered =
        Stratrec_util.Json.to_string ~indent:1 (Obs.Trace.to_chrome_json trace) ^ "\n"
      in
      try
        Ok
          (Out_channel.with_open_text path (fun oc ->
               Out_channel.output_string oc rendered))
      with Sys_error message -> Error (`Msg message))

(* recommend *)

let recommend seed n m k w dist objective catalog show_metrics metrics_format metrics_out
    trace_dest log_dest profile deploy faults retries population capacity window domains
    cache =
  with_log log_dest @@ fun log ->
  let rng = Rng.create seed in
  let* strategies = Stratrec_conv.catalog_or_generate ~rng ~n ~dist catalog in
  let requests = Model.Workload.requests rng ~m ~k in
  let deploy =
    Stratrec_conv.deploy_config ~rng ~deploy ~faults ~retries ~population ~capacity ~window
  in
  let availability = Model.Availability.certain w in
  let metrics = Obs.Registry.create () and trace = Obs.Trace.create () in
  let config =
    Engine.with_aggregator
      (engine_config ~metrics ~trace ~log ~deploy ~domains ~profile ~cache)
      {
        Stratrec.Aggregator.default_config with
        Stratrec.Aggregator.objective;
        inversion_rule = `Paper_equality;
        reestimate_parameters = false;
      }
  in
  let* report =
    Result.map_error Stratrec_conv.engine_msg
      (Engine.run ~config ~rng ~availability ~strategies ~requests ())
  in
  Format.printf "%a@." Stratrec.Aggregator.pp_report report.Engine.aggregate;
  print_deployed report;
  let* () =
    emit_metrics ~show:show_metrics ~format:metrics_format ~out:metrics_out
      (Obs.Registry.snapshot metrics)
  in
  emit_trace trace_dest trace

let recommend_cmd =
  let m_arg =
    Arg.(value
         & opt (Stratrec_conv.count ~min:0) 10
         & info [ "m"; "requests" ] ~docv:"M" ~doc:"Batch size.")
  in
  let w_arg =
    Arg.(value
         & opt Stratrec_conv.workforce 0.75
         & info [ "w"; "workforce" ] ~docv:"W" ~doc:"Available workforce in [0,1].")
  in
  Cmd.v
    (Cmd.info "recommend" ~doc:"Batch deployment recommendation on a synthetic catalog")
    Term.(term_result
            (const recommend $ seed_arg $ Stratrec_conv.strategies_arg $ m_arg $ k_arg $ w_arg
             $ dist_arg $ Stratrec_conv.objective_arg $ catalog_arg $ metrics_arg
             $ metrics_format_arg $ metrics_out_arg $ trace_arg $ log_arg $ profile_arg
             $ deploy_arg $ faults_arg $ retries_arg $ Stratrec_conv.population_arg
             $ Stratrec_conv.capacity_arg $ Stratrec_conv.window_arg $ domains_arg $ cache_arg))

(* adpar *)

let adpar seed n k dist catalog params trace_dest =
  let rng = Rng.create seed in
  let* strategies = Stratrec_conv.catalog_or_generate ~rng ~n ~dist catalog in
  let request = Deployment.make ~id:0 ~params ~k () in
  let trace = Obs.Trace.create () in
  (match Stratrec.Adpar.exact ~trace ~strategies request with
  | None -> Printf.printf "catalog has fewer than %d strategies\n" k
  | Some r ->
      Format.printf "original    %a@." Params.pp request.Deployment.params;
      Format.printf "alternative %a (distance %.4f)@." Params.pp r.Stratrec.Adpar.alternative
        r.Stratrec.Adpar.distance;
      Format.printf "%d strategies satisfy the alternative; recommending:@."
        r.Stratrec.Adpar.covered_count;
      List.iter
        (fun s -> Format.printf "  %s %a@." s.Model.Strategy.label Params.pp s.Model.Strategy.params)
        r.Stratrec.Adpar.recommended);
  emit_trace trace_dest trace

let adpar_cmd =
  let request_arg =
    Arg.(value
         & opt Stratrec_conv.params (Params.make ~quality:0.9 ~cost:0.2 ~latency:0.3)
         & info [ "request" ] ~docv:"Q,C,L"
             ~doc:"Deployment thresholds: quality lower bound, cost and latency upper bounds.")
  in
  Cmd.v
    (Cmd.info "adpar" ~doc:"Closest alternative deployment parameters for a hard request")
    Term.(term_result
            (const adpar $ seed_arg $ Stratrec_conv.strategies_arg $ k_arg $ dist_arg
             $ catalog_arg $ request_arg $ trace_arg))

(* catalog *)

let catalog seed n stages dist output =
  let rng = Rng.create seed in
  let strategies =
    if stages = 1 then Model.Workload.strategies rng ~n ~kind:dist
    else Model.Workload.workflows rng ~n ~stages ~kind:dist
  in
  match Model.Codec.save ~path:output (Model.Codec.catalog_to_json strategies) with
  | () ->
      Printf.printf "wrote %d strategies (%d stage%s each) to %s\n" n stages
        (if stages > 1 then "s" else "")
        output;
      Ok ()
  | exception Sys_error message -> Error (`Msg message)

let catalog_cmd =
  let stages_arg =
    Arg.(value & opt (Stratrec_conv.count ~min:1) 1
         & info [ "stages" ] ~docv:"X" ~doc:"Stages per workflow strategy (1 = single-stage).")
  in
  let output_arg =
    Arg.(value & opt string "catalog.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "catalog" ~doc:"Generate a strategy catalog and save it as JSON")
    Term.(term_result
            (const catalog $ seed_arg $ Stratrec_conv.strategies_arg $ stages_arg $ dist_arg
             $ output_arg))

(* simulate *)

type study = Availability_study | Linearity_study | Effectiveness_study

let simulate seed study population tasks =
  let rng = Rng.create seed in
  let platform = Sim.Platform.create rng ~population in
  let kind = Sim.Task_spec.Sentence_translation in
  (match study with
  | Availability_study ->
      List.iter
        (fun r ->
          Printf.printf "%-9s %-12s availability %.3f (se %.3f)\n"
            (Sim.Window.label r.Sim.Study.window)
            (Model.Dimension.combo_label r.Sim.Study.combo)
            r.Sim.Study.mean_availability r.Sim.Study.std_error)
        (Sim.Study.availability_study platform rng ~kind ())
  | Linearity_study ->
      List.iter
        (fun label ->
          let combo = Option.get (Model.Dimension.combo_of_label label) in
          let res = Sim.Study.linearity_study platform rng ~kind ~combo () in
          Printf.printf "%s:\n" label;
          Format.printf "%a" Sim.Calibration.pp res.Sim.Study.calibration)
        [ "SEQ-IND-CRO"; "SIM-COL-CRO" ]
  | Effectiveness_study ->
      let res =
        Sim.Study.effectiveness_study platform rng ~kind
          ~recommend:Sim.Study.default_recommender ~tasks ()
      in
      let arm name (a : Sim.Study.arm_summary) =
        Printf.printf "%-18s quality %.3f cost %.3f latency %.3f edits/task %.2f\n" name
          a.Sim.Study.quality.Stratrec_util.Stats.mean a.Sim.Study.cost.Stratrec_util.Stats.mean
          a.Sim.Study.latency.Stratrec_util.Stats.mean a.Sim.Study.mean_edits
      in
      arm "StratRec" res.Sim.Study.guided;
      arm "Without StratRec" res.Sim.Study.unguided;
      Printf.printf "quality p=%.4f latency p=%.4f\n"
        res.Sim.Study.quality_test.Stratrec_util.Stats.p_value
        res.Sim.Study.latency_test.Stratrec_util.Stats.p_value);
  Ok ()

let simulate_cmd =
  let study_arg =
    let studies =
      [
        ("availability", Availability_study);
        ("linearity", Linearity_study);
        ("effectiveness", Effectiveness_study);
      ]
    in
    Arg.(value & pos 0 (enum studies) Availability_study
         & info [] ~docv:"STUDY" ~doc:"availability, linearity or effectiveness.")
  in
  let population_arg =
    Arg.(value
         & opt (Stratrec_conv.count ~min:1) 1000
         & info [ "population" ] ~docv:"P" ~doc:"Platform population.")
  in
  let tasks_arg =
    Arg.(value
         & opt (Stratrec_conv.count ~min:2) 10
         & info [ "tasks" ] ~docv:"T" ~doc:"Tasks per arm (effectiveness).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the crowd-platform studies of the paper's 5.1")
    Term.(term_result (const simulate $ seed_arg $ study_arg $ population_arg $ tasks_arg))

(* example *)

let example show_metrics metrics_format metrics_out trace_dest log_dest profile deploy
    faults retries domains cache =
  with_log log_dest @@ fun log ->
  let rng = Rng.create 2020 in
  let deploy =
    Stratrec_conv.deploy_config ~rng ~deploy ~faults ~retries ~population:200 ~capacity:5
      ~window:Sim.Window.Weekend
  in
  let metrics = Obs.Registry.create () and trace = Obs.Trace.create () in
  let config = engine_config ~metrics ~trace ~log ~deploy ~domains ~profile ~cache in
  let* report =
    Result.map_error Stratrec_conv.engine_msg
      (Engine.run ~config ~rng
         ~availability:(Model.Paper_example.availability ())
         ~strategies:(Model.Paper_example.strategies ())
         ~requests:(Model.Paper_example.requests ())
         ())
  in
  Format.printf "%a@." Stratrec.Aggregator.pp_report report.Engine.aggregate;
  print_deployed report;
  let* () =
    emit_metrics ~show:show_metrics ~format:metrics_format ~out:metrics_out
      (Obs.Registry.snapshot metrics)
  in
  emit_trace trace_dest trace

let example_cmd =
  Cmd.v
    (Cmd.info "example" ~doc:"Walk through the paper's Example 1")
    Term.(term_result
            (const example $ metrics_arg $ metrics_format_arg $ metrics_out_arg
             $ trace_arg $ log_arg $ profile_arg $ deploy_arg $ faults_arg
             $ retries_arg $ domains_arg $ cache_arg))

let main_cmd =
  let doc = "StratRec: deployment-strategy recommendation for collaborative crowdsourcing tasks" in
  Cmd.group (Cmd.info "stratrec" ~version:"1.0.0" ~doc)
    [ recommend_cmd; adpar_cmd; catalog_cmd; simulate_cmd; example_cmd ]

let () = exit (Cmd.eval main_cmd)
