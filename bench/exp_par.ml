(* Experiment PAR: scaling of the domain-sharded Aggregator.

   A Fig. 15-style batch workload, tilted so ADPaR dominates: a uniform
   catalog plus demanding requests (tight cost/latency budgets), a small
   workforce budget, so nearly every request falls through BatchStrat
   into the per-request triage that --domains shards. Each domain count
   is timed over repeated runs. That a parallel run's output (report,
   counters, span tree, decisions) is bit-identical to the sequential
   one is test_par's property, not this harness's. *)

module Model = Stratrec_model
module Obs = Stratrec_obs
module Tabular = Stratrec_util.Tabular

let domain_counts = [ 1; 2; 4 ]

let one_run ~domains ~n ~m ~k ~w =
  (* Same seed for every domain count: identical inputs across the
     sweep, recorded into a live registry and trace as a served epoch
     is. *)
  let rng = Stratrec_util.Rng.create 20200317 in
  let strategies = Model.Workload.strategies rng ~n ~kind:Model.Workload.Uniform in
  let requests = Bench_common.hard_requests rng ~m ~k in
  let metrics = Obs.Registry.create () in
  let trace = Obs.Trace.create () in
  let elapsed, _ =
    Bench_common.time (fun () ->
        Stratrec.Aggregator.run ~metrics ~trace ~domains
          ~availability:(Model.Availability.certain w) ~strategies ~requests ())
  in
  elapsed

let run () =
  Bench_common.section "PAR - domain-sharded batch triage scaling";
  let n = Bench_common.scale 300 in
  let m = Bench_common.scale 400 in
  let k = 5 and w = 0.4 in
  let runs = Bench_common.runs (if !Bench_common.quick then 2 else 5) in
  Printf.printf
    "catalog |S| = %d, batch m = %d, k = %d, W = %.1f, %d run(s) per point, %d core(s) \
     available\n"
    n m k w runs
    (Domain.recommended_domain_count ());
  let t = Tabular.create ~columns:[ "domains"; "seconds"; "speedup" ] in
  let baseline_seconds = ref None in
  List.iter
    (fun domains ->
      let samples = List.init runs (fun _ -> one_run ~domains ~n ~m ~k ~w) in
      let seconds = List.fold_left ( +. ) 0. samples /. float_of_int runs in
      let baseline = Option.value !baseline_seconds ~default:seconds in
      baseline_seconds := Some baseline;
      Tabular.add_row t
        [
          string_of_int domains;
          Printf.sprintf "%.3f" seconds;
          Printf.sprintf "%.2fx" (baseline /. seconds);
        ])
    domain_counts;
  Bench_common.print_table ~title:"triage wall-clock by domain count" t;
  print_endline
    "Expected shape: speedup >= 2x at 4 domains on the full-size workload given\n\
     >= 4 cores (on fewer cores the extra domains only add scheduling overhead)."
