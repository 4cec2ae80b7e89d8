(* Experiment PAR: scaling of the domain-sharded Aggregator.

   A Fig. 15-style batch workload, tilted so ADPaR dominates: a uniform
   catalog plus demanding requests (tight cost/latency budgets), a small
   workforce budget, so nearly every request falls through BatchStrat
   into the per-request triage that --domains shards. Each domain count
   is timed over repeated runs, and every parallel run's observable
   output (rendered report, counters, span tree, decision log) is
   checked bit-identical against the sequential baseline; a mismatch
   aborts the harness with exit 1, making this a correctness gate as
   well as a scaling plot. *)

module Model = Stratrec_model
module Obs = Stratrec_obs
module Pool = Stratrec_par.Pool
module Tabular = Stratrec_util.Tabular

let domain_counts = [ 1; 2; 4 ]

(* Everything deterministic a run produces; timing histograms contribute
   their observation counts only (the values are clock readings), and the
   par.* pool-utilization gauges are dropped outright — they are
   scheduling measurements, the one instrument family allowed to differ
   across domain counts. *)
let fingerprint report metrics trace =
  let snapshot =
    List.filter_map
      (fun ({ Obs.Snapshot.name; value; _ } as entry) ->
        let series = Obs.Snapshot.series_name entry in
        match value with
        | _ when String.starts_with ~prefix:"par." name -> None
        | Obs.Snapshot.Counter n -> Some (series, `Counter n)
        | Obs.Snapshot.Gauge g -> Some (series, `Gauge g)
        | Obs.Snapshot.Histogram h -> Some (series, `Observations h.Obs.Snapshot.count))
      (Obs.Registry.snapshot metrics)
  in
  let tree =
    List.map
      (fun n -> (n.Obs.Trace.id, n.Obs.Trace.parent, n.Obs.Trace.name, n.Obs.Trace.depth))
      (Obs.Trace.nodes trace)
  in
  let decisions =
    List.map
      (fun d -> (d.Obs.Trace.request_id, Format.asprintf "%a" Obs.Trace.pp_decision d))
      (Obs.Trace.decisions trace)
  in
  (Format.asprintf "%a" Stratrec.Aggregator.pp_report report, snapshot, tree, decisions)

let one_run ~domains ~n ~m ~k ~w =
  (* Same seed for every domain count: identical inputs, so fingerprints
     are comparable across the sweep. *)
  let rng = Stratrec_util.Rng.create 20200317 in
  let strategies = Model.Workload.strategies rng ~n ~kind:Model.Workload.Uniform in
  let requests = Bench_common.hard_requests rng ~m ~k in
  let metrics = Obs.Registry.create () in
  let trace = Obs.Trace.create () in
  (* Profile every run: the wall/GC histograms and the pool's par.*
     utilization gauges ride along in [metrics], and the fingerprint
     check below doubles as proof that profiling stays off the
     determinism path. *)
  let pool = if domains > 1 then Some (Pool.shared ~domains) else None in
  Option.iter
    (fun p ->
      Pool.reset_stats p;
      Pool.set_profiling p true)
    pool;
  let elapsed, report =
    Bench_common.time (fun () ->
        Obs.Profile.time metrics "exp_par.triage" (fun () ->
            Stratrec.Aggregator.run ~metrics ~trace ~domains
              ~availability:(Model.Availability.certain w) ~strategies ~requests ()))
  in
  Option.iter
    (fun p ->
      Pool.set_profiling p false;
      Pool.export p ~metrics)
    pool;
  (elapsed, fingerprint report metrics trace)

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
  let t = Tabular.create ~columns:[ "domains"; "seconds"; "speedup"; "identical" ] in
  let baseline_seconds = ref 0. in
  let baseline_fingerprint = ref None in
  List.iter
    (fun domains ->
      let samples = List.init runs (fun _ -> one_run ~domains ~n ~m ~k ~w) in
      let seconds =
        List.fold_left (fun acc (s, _) -> acc +. s) 0. samples /. float_of_int runs
      in
      let _, fp = List.hd samples in
      let identical =
        match !baseline_fingerprint with
        | None ->
            baseline_seconds := seconds;
            baseline_fingerprint := Some fp;
            "baseline"
        | Some base ->
            if fp <> base then begin
              Printf.eprintf
                "exp_par: run with --domains %d is NOT bit-identical to the sequential \
                 baseline\n"
                domains;
              exit 1
            end;
            "yes"
      in
      Tabular.add_row t
        [
          string_of_int domains;
          Printf.sprintf "%.3f" seconds;
          Printf.sprintf "%.2fx" (!baseline_seconds /. seconds);
          identical;
        ])
    domain_counts;
  Bench_common.print_table ~title:"triage wall-clock by domain count" t;
  print_endline
    "Expected shape: every row identical to the baseline; speedup >= 2x at 4 domains\n\
     on the full-size workload given >= 4 cores (on fewer cores the extra domains\n\
     only add scheduling overhead — the identity columns are the invariant)."
