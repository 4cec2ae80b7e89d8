(* Experiment CACHE: the epoch-scoped triage cache under Zipf traffic.

   Heavy serving traffic repeats a small space of request shapes. This
   experiment replays the same Zipf-distributed multi-epoch workload —
   a hot head of demanding shapes, a long cold tail — through Engine
   sessions at three cache policies (off, a deliberately undersized
   capacity, the default) and times the triage path. That a cached
   session's output (per-epoch reports and decisions, counters sans the
   cache.* instruments, span tree) is bit-identical to an uncached one
   is test_cache's property, not this harness's. *)

module Model = Stratrec_model
module Rng = Stratrec_util.Rng
module Tabular = Stratrec_util.Tabular
module Engine = Stratrec.Engine
module C = Stratrec.Triage_cache

(* Zipf rank sampler over [0, shapes): P(rank r) proportional to
   1/(r+1)^s. The repo has no Zipf distribution; a cumulative table +
   binary search is all the structure the traffic shape needs. *)
let zipf_cdf ~shapes ~s =
  let weights = Array.init shapes (fun r -> 1. /. Float.pow (float_of_int (r + 1)) s) in
  let cdf = Array.make shapes 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cdf.(i) <- !acc)
    weights;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw rng cdf =
  let u = Rng.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let one_run ~cache ~strategies ~w ~epoch_batches =
  let config = Engine.with_cache Engine.default_config cache in
  let session =
    match
      Engine.create ~config ~availability:(Model.Availability.certain w) ~strategies ()
    with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "exp_cache: create failed: %s\n" (Engine.error_message e);
        exit 1
  in
  let elapsed, () =
    Bench_common.time (fun () ->
        List.iter
          (fun batch ->
            match Engine.submit session batch with
            | Ok _ -> ()
            | Error e ->
                Printf.eprintf "exp_cache: submit failed: %s\n" (Engine.error_message e);
                exit 1)
          epoch_batches)
  in
  let stats = Engine.cache_stats session in
  Engine.close session;
  (elapsed, stats)

let run () =
  Bench_common.section "CACHE - epoch-scoped triage cache under Zipf traffic";
  let n = Bench_common.scale 200 in
  let shapes = max 2 (Bench_common.scale 40) in
  let m = Bench_common.scale 200 in
  let epochs = if !Bench_common.smoke then 2 else 4 in
  let k = 5 and w = 0.4 and skew = 1.1 in
  let runs = Bench_common.runs (if !Bench_common.quick then 2 else 5) in
  let rng = Rng.create 20200317 in
  let strategies = Model.Workload.strategies rng ~n ~kind:Model.Workload.Uniform in
  (* A hot catalog of demanding shapes (tight cost/latency budgets, so
     most requests fall through BatchStrat into ADPaR — the path worth
     memoizing), then Zipf traffic over it. *)
  let shape_pool = Bench_common.hard_requests rng ~m:shapes ~k in
  let cdf = zipf_cdf ~shapes ~s:skew in
  let epoch_batches =
    List.init epochs (fun _ ->
        List.init m (fun id ->
            let shape = shape_pool.(zipf_draw rng cdf) in
            Stratrec.Request.of_deployment
              (Model.Deployment.make ~id ~params:shape.Model.Deployment.params
                 ~k:shape.Model.Deployment.k ())))
  in
  Printf.printf
    "catalog |S| = %d, %d shapes (zipf s=%.1f), %d requests x %d epochs, k = %d, W = %.1f, \
     %d run(s) per point\n"
    n shapes skew m epochs k w runs;
  let t = Tabular.create ~columns:[ "cache"; "seconds"; "speedup"; "hit_ratio" ] in
  let baseline_seconds = ref None in
  List.iter
    (fun cache ->
      let samples =
        List.init runs (fun _ -> one_run ~cache ~strategies ~w ~epoch_batches)
      in
      let seconds =
        List.fold_left (fun acc (s, _) -> acc +. s) 0. samples /. float_of_int runs
      in
      let baseline = Option.value !baseline_seconds ~default:seconds in
      baseline_seconds := Some baseline;
      let _, stats = List.hd samples in
      let hit_ratio =
        match stats with
        | None -> "-"
        | Some s ->
            let total = s.C.hits + s.C.misses in
            let r = if total = 0 then 0. else float_of_int s.C.hits /. float_of_int total in
            Printf.sprintf "%.3f" r
      in
      Tabular.add_row t
        [
          C.policy_to_string cache;
          Printf.sprintf "%.3f" seconds;
          Printf.sprintf "%.2fx" (baseline /. seconds);
          hit_ratio;
        ])
    [ None; Some { C.capacity = max 2 (shapes / 4) }; Some C.default_config ];
  Bench_common.print_table ~title:"triage wall-clock by cache policy" t;
  print_endline
    "Expected shape: the default capacity converges to the Zipf head's hit ratio and\n\
     beats the uncached run on the full-size workload (the undersized row shows\n\
     eviction churn eating the gain)."
