(* Experiment Fig. 18: scalability. (a) batch deployment running time vs
   batch size m for BruteForce and BatchStrat; (b) ADPaR-Exact running time
   vs |S|; (c) ADPaR-Exact running time vs k. (b) and (c) also time the
   sweep over the catalog's k-skyband, build included, and report its
   size. Wall-clock seconds, averaged over a few runs. *)

module Rng = Stratrec_util.Rng
module Tabular = Stratrec_util.Tabular
module Model = Stratrec_model
module Workforce = Model.Workforce

let runs () = Bench_common.runs (if !Bench_common.quick then 2 else 5)

let fig18a () =
  let t = Tabular.create ~columns:[ "m"; "BruteForce (s)"; "BatchStrat (s)" ] in
  let n = 30 and k = 10 and w = 0.75 in
  List.iter
    (fun m ->
      let brute_total = ref 0. and ours_total = ref 0. in
      for i = 1 to runs () do
        let rng = Rng.create (11_000 + i) in
        let strategies = Model.Workload.strategies rng ~n ~kind:Model.Workload.Uniform in
        let requests = Model.Workload.requests rng ~m ~k in
        let matrix = Workforce.compute ~rule:`Paper_equality ~requests ~strategies () in
        let objective = Stratrec.Objective.Payoff and aggregation = Workforce.Max_case in
        let bt, _ =
          Bench_common.time (fun () ->
              Stratrec.Batch_baselines.brute_force ~objective ~aggregation ~available:w matrix)
        in
        let ot, _ =
          Bench_common.time (fun () ->
              Stratrec.Batchstrat.run ~objective ~aggregation ~available:w matrix)
        in
        brute_total := !brute_total +. bt;
        ours_total := !ours_total +. ot
      done;
      let avg v = v /. float_of_int (runs ()) in
      Tabular.add_row t
        [
          string_of_int m;
          Printf.sprintf "%.5f" (avg !brute_total);
          Printf.sprintf "%.5f" (avg !ours_total);
        ])
    (Bench_common.values (if !Bench_common.quick then [ 100; 200 ] else [ 200; 400; 600; 800 ]));
  Bench_common.print_table ~title:"(a) batch deployment, varying m (W = 0.75: tight budget)" t;
  (* With W = 0.75 branch-and-bound prunes almost everything (only ~one
     request fits), hiding the exponential gap; scaling the budget with m
     exposes it while BatchStrat stays in microseconds. *)
  let t = Tabular.create ~columns:[ "m"; "W"; "BruteForce (s)"; "BatchStrat (s)" ] in
  List.iter
    (fun (m, w) ->
      let brute_total = ref 0. and ours_total = ref 0. in
      for i = 1 to runs () do
        let rng = Rng.create (11_500 + i) in
        let strategies = Model.Workload.strategies rng ~n:30 ~kind:Model.Workload.Uniform in
        let requests = Model.Workload.requests rng ~m ~k:5 in
        let matrix = Workforce.compute ~rule:`Paper_equality ~requests ~strategies () in
        let objective = Stratrec.Objective.Payoff and aggregation = Workforce.Max_case in
        let bt, _ =
          Bench_common.time (fun () ->
              Stratrec.Batch_baselines.brute_force ~objective ~aggregation ~available:w matrix)
        in
        let ot, _ =
          Bench_common.time (fun () ->
              Stratrec.Batchstrat.run ~objective ~aggregation ~available:w matrix)
        in
        brute_total := !brute_total +. bt;
        ours_total := !ours_total +. ot
      done;
      let avg v = v /. float_of_int (runs ()) in
      Tabular.add_row t
        [
          string_of_int m;
          Printf.sprintf "%.0f" w;
          Printf.sprintf "%.5f" (avg !brute_total);
          Printf.sprintf "%.6f" (avg !ours_total);
        ])
    (Bench_common.values
       (if !Bench_common.quick then [ (20, 6.); (24, 8.) ]
        else [ (20, 6.); (24, 8.); (28, 10.); (32, 12.) ]));
  Bench_common.print_table ~title:"(a') batch deployment, budget scaling with m (exponential regime)" t

(* Mean seconds of the paper's full sweep, of building the catalog's
   skyband and sweeping it (what a stateless caller pays per call), and
   the mean skyband size. Both sweeps must give the same distance. *)
let adpar_time ~n ~k =
  let full = ref 0. and skyband = ref 0. and size = ref 0 in
  for i = 1 to runs () do
    let rng = Rng.create (12_000 + i) in
    let strategies = Model.Workload.strategies rng ~n ~kind:Model.Workload.Uniform in
    let request = (Bench_common.hard_requests rng ~m:1 ~k).(0) in
    let dt, a =
      Bench_common.time (fun () ->
          Stratrec.Adpar.exact ~trace:!Bench_common.trace ~strategies request)
    in
    let ds, (sb, b) =
      Bench_common.time (fun () ->
          let sb = Stratrec.Adpar.skyband strategies in
          (sb, Stratrec.Adpar.exact ~skyband:sb ~strategies request))
    in
    (match (a, b) with
    | Some a, Some b when Float.equal a.Stratrec.Adpar.distance b.Stratrec.Adpar.distance -> ()
    | None, None -> ()
    | _ -> failwith "fig18: the skyband sweep changed the result");
    full := !full +. dt;
    skyband := !skyband +. ds;
    size := !size + Stratrec.Adpar.skyband_size sb ~k
  done;
  let runs = float_of_int (runs ()) in
  (!full /. runs, !skyband /. runs, float_of_int !size /. runs)

let adpar_columns first =
  [ first; "ADPaR-Exact (s)"; "skyband build + sweep (s)"; "skyband size" ]

let adpar_row label (full, skyband, size) =
  [ label; Printf.sprintf "%.5f" full; Printf.sprintf "%.5f" skyband; Printf.sprintf "%.0f" size ]

let fig18b () =
  let t = Tabular.create ~columns:(adpar_columns "|S|") in
  List.iter
    (fun n -> Tabular.add_row t (adpar_row (string_of_int n) (adpar_time ~n ~k:5)))
    (Bench_common.values (if !Bench_common.quick then [ 1000; 5000 ] else [ 1000; 5000; 25000 ]));
  Bench_common.print_table ~title:"(b) ADPaR, varying |S| (k = 5)" t

let fig18c () =
  let t = Tabular.create ~columns:(adpar_columns "k") in
  List.iter
    (fun k -> Tabular.add_row t (adpar_row (string_of_int k) (adpar_time ~n:10_000 ~k)))
    (Bench_common.values (if !Bench_common.quick then [ 10; 50 ] else [ 10; 50; 250 ]));
  Bench_common.print_table ~title:"(c) ADPaR, varying k (|S| = 10000)" t

let run () =
  Bench_common.section "Fig. 18 - scalability (wall-clock seconds)";
  fig18a ();
  fig18b ();
  fig18c ();
  print_endline
    "Expected shape: BatchStrat linear in m and far below BruteForce;\n\
     ADPaR-Exact grows with |S| and k but stays in seconds; the skyband\n\
     sweep, build included, stays far below it while k is within the\n\
     skyband cap (above it, it is the full sweep plus the build)."
