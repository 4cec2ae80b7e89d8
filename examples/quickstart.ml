(* Quickstart: the paper's Example 1 end-to-end.

   Three requesters submit sentence-translation deployment requests with
   (quality, cost, latency) thresholds; the platform knows four deployment
   strategies and expects 80% worker availability. StratRec recommends
   strategies where possible and closest alternative parameters otherwise.

   Run with: dune exec examples/quickstart.exe *)

module Model = Stratrec_model
module Params = Model.Params
module Deployment = Model.Deployment
module Strategy = Model.Strategy

let () =
  let strategies = Model.Paper_example.strategies () in
  let requests = Model.Paper_example.requests () in
  let availability = Model.Paper_example.availability () in

  Printf.printf "Catalog (Table 1):\n";
  Array.iter
    (fun s ->
      Format.printf "  %-18s quality>=%.2f cost=%.2f latency=%.2f@."
        s.Strategy.label s.Strategy.params.Params.quality s.Strategy.params.Params.cost
        s.Strategy.params.Params.latency)
    strategies;
  Format.printf "Requests: each wants k=%d strategies@." Model.Paper_example.k;
  Array.iter (fun d -> Format.printf "  %a@." Deployment.pp d) requests;
  Format.printf "Expected worker availability W = %.2f@.@."
    (Model.Availability.expected availability);

  (* One façade call runs the whole recommend -> ADPaR-triage pipeline
     and returns a typed report of the outcomes. The run records its
     metrics into a registry we own, so we can read them afterwards. *)
  let metrics = Stratrec_obs.Registry.create () in
  let config = Stratrec.Engine.(with_metrics default_config metrics) in
  let report =
    match Stratrec.Engine.run ~config ~availability ~strategies ~requests () with
    | Ok report -> report
    | Error e -> failwith (Stratrec.Engine.error_message e)
  in
  Format.printf "%a@." Stratrec.Aggregator.pp_report report.Stratrec.Engine.aggregate;

  (* Unsatisfied requests got alternatives; show how close they are. *)
  List.iter
    (fun (d, alt) ->
      Format.printf
        "ADPaR for %s: move thresholds from %a to %a (distance %.3f), then %d strategies fit:@."
        d.Deployment.label Params.pp d.Deployment.params Params.pp
        alt.Stratrec.Adpar.alternative alt.Stratrec.Adpar.distance
        (List.length alt.Stratrec.Adpar.recommended);
      List.iter
        (fun s -> Format.printf "    %s@." s.Strategy.label)
        alt.Stratrec.Adpar.recommended)
    (Stratrec.Aggregator.alternatives report.Stratrec.Engine.aggregate);

  (* The report also tallies the triage; the registry holds the run's
     telemetry. *)
  let counts = report.Stratrec.Engine.counts in
  Format.printf "@.%d/%d satisfied, %d repaired by ADPaR@." counts.Stratrec.Engine.satisfied
    counts.Stratrec.Engine.requests counts.Stratrec.Engine.alternatives;
  Stratrec_util.Tabular.print ~title:"run metrics"
    (Stratrec_obs.Snapshot.to_table (Stratrec_obs.Registry.snapshot metrics))
