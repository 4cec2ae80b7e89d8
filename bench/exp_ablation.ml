(* Ablation studies for the design choices called out in DESIGN.md:
   (a) ADPaR-Exact's monotone-objective pruning, and (a') its sweep over
       the catalog's k-skyband,
   (b) BatchStrat's best-single correction for pay-off (vs plain greedy),
   (c) Sum-case vs Max-case workforce aggregation,
   (d) R-tree construction method behind Baseline3 (STR bulk load vs
       one-by-one insertion). *)

module Rng = Stratrec_util.Rng
module Tabular = Stratrec_util.Tabular
module Model = Stratrec_model
module Workforce = Model.Workforce
module P3 = Stratrec_geom.Point3

let runs () = Bench_common.runs (if !Bench_common.quick then 2 else 5)

let adpar_pruning () =
  let t = Tabular.create ~columns:[ "|S|"; "pruned (s)"; "unpruned (s)"; "speedup" ] in
  List.iter
    (fun n ->
      let pruned_total = ref 0. and unpruned_total = ref 0. in
      for i = 1 to runs () do
        let request = (Bench_common.hard_requests (Rng.create (21_000 + i)) ~m:1 ~k:5).(0) in
        let strategies =
          Model.Workload.strategies (Rng.create (22_000 + i)) ~n ~kind:Model.Workload.Uniform
        in
        let dt, a = Bench_common.time (fun () -> Stratrec.Adpar.exact ~strategies request) in
        let du, b =
          Bench_common.time (fun () -> Stratrec.Adpar.exact ~prune:false ~strategies request)
        in
        (match (a, b) with
        | Some a, Some b when Float.abs (a.Stratrec.Adpar.distance -. b.Stratrec.Adpar.distance) < 1e-9 -> ()
        | _ -> failwith "ablation: pruning changed the result");
        pruned_total := !pruned_total +. dt;
        unpruned_total := !unpruned_total +. du
      done;
      let p = !pruned_total /. float_of_int (runs ()) in
      let u = !unpruned_total /. float_of_int (runs ()) in
      Tabular.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.5f" p;
          Printf.sprintf "%.5f" u;
          Printf.sprintf "%.1fx" (u /. Float.max 1e-9 p);
        ])
    (Bench_common.values (if !Bench_common.quick then [ 500; 1000 ] else [ 500; 1000; 2000; 4000 ]));
  Bench_common.print_table ~title:"(a) ADPaR-Exact pruning (identical results, wall-clock)" t

(* The same calls with and without the catalog's k-skyband, built
   outside the sweep timing as a session builds it once. *)
let adpar_skyband () =
  let t =
    Tabular.create
      ~columns:[ "|S|"; "members"; "build (s)"; "skyband (s)"; "full sweep (s)"; "speedup" ]
  in
  List.iter
    (fun n ->
      let build_total = ref 0. and on_total = ref 0. and off_total = ref 0. in
      let members = ref 0 in
      for i = 1 to runs () do
        let request = (Bench_common.hard_requests (Rng.create (21_000 + i)) ~m:1 ~k:5).(0) in
        let strategies =
          Model.Workload.strategies (Rng.create (22_000 + i)) ~n ~kind:Model.Workload.Uniform
        in
        let db, skyband = Bench_common.time (fun () -> Stratrec.Adpar.skyband strategies) in
        let d_on, a =
          Bench_common.time (fun () -> Stratrec.Adpar.exact ~skyband ~strategies request)
        in
        let d_off, b = Bench_common.time (fun () -> Stratrec.Adpar.exact ~strategies request) in
        (match (a, b) with
        | Some a, Some b when Float.equal a.Stratrec.Adpar.distance b.Stratrec.Adpar.distance -> ()
        | _ -> failwith "ablation: the skyband changed the result");
        build_total := !build_total +. db;
        on_total := !on_total +. d_on;
        off_total := !off_total +. d_off;
        members := !members + Stratrec.Adpar.skyband_size skyband ~k:5
      done;
      let avg v = v /. float_of_int (runs ()) in
      Tabular.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.0f" (avg (float_of_int !members));
          Printf.sprintf "%.5f" (avg !build_total);
          Printf.sprintf "%.5f" (avg !on_total);
          Printf.sprintf "%.5f" (avg !off_total);
          Printf.sprintf "%.1fx" (!off_total /. Float.max 1e-9 !on_total);
        ])
    (Bench_common.values (if !Bench_common.quick then [ 500; 1000 ] else [ 500; 1000; 2000; 4000 ]));
  Bench_common.print_table
    ~title:"(a') ADPaR-Exact over the k-skyband (k = 5, identical results, wall-clock)" t

let best_single_correction () =
  (* Adversarial pay-off instances: many low-value high-density fillers and
     one high-value item that density-greedy skips. *)
  let t = Tabular.create ~columns:[ "instance"; "BatchStrat"; "plain greedy"; "optimal" ] in
  List.iter
    (fun i ->
      let rng = Rng.create (23_000 + i) in
      let m = 12 in
      let fillers =
        List.init (m - 1) (fun _ -> (0.02 +. Rng.float rng 0.03, 0.05 +. Rng.float rng 0.05))
      in
      let big = (0.8, 0.95) in
      let entries = Array.of_list (fillers @ [ big ]) in
      let requests =
        Array.mapi
          (fun id (_, value) ->
            Model.Deployment.make ~id
              ~params:(Model.Params.make ~quality:0.1 ~cost:value ~latency:0.9)
              ~k:1 ())
          entries
      in
      let strategies =
        [|
          Model.Strategy.single ~id:0
            (List.hd Model.Dimension.all_combos)
            ~params:(Model.Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5)
            ~model:(Model.Linear_model.synthetic rng);
        |]
      in
      let matrix =
        Workforce.compute_with
          ~requirement:(fun d _ -> Some (fst entries.(d.Model.Deployment.id)))
          ~requests ~strategies
      in
      let objective = Stratrec.Objective.Payoff and aggregation = Workforce.Max_case in
      let available = 0.9 in
      let ours = Stratrec.Batchstrat.run ~objective ~aggregation ~available matrix in
      let plain = Stratrec.Batch_baselines.baseline_g ~objective ~aggregation ~available matrix in
      let best = Stratrec.Batch_baselines.brute_force ~objective ~aggregation ~available matrix in
      Tabular.add_row t
        [
          string_of_int i;
          Printf.sprintf "%.3f" ours.Stratrec.Batchstrat.objective_value;
          Printf.sprintf "%.3f" plain.Stratrec.Batchstrat.objective_value;
          Printf.sprintf "%.3f" best.Stratrec.Batchstrat.objective_value;
        ])
    (Bench_common.values (List.init 4 (fun i -> i + 1)));
  Bench_common.print_table
    ~title:"(b) Theorem 3's best-single correction on adversarial pay-off instances" t

let aggregation_cases () =
  let t = Tabular.create ~columns:[ "k"; "Sum-case %"; "Max-case %" ] in
  let runs = Bench_common.runs (if !Bench_common.quick then 3 else 10) in
  List.iter
    (fun k ->
      let fraction aggregation =
        Bench_common.mean_over_runs ~runs (fun rng ->
            let strategies = Model.Workload.strategies rng ~n:500 ~kind:Model.Workload.Uniform in
            let requests = Model.Workload.requests rng ~m:10 ~k in
            let matrix = Workforce.compute ~rule:`Paper_equality ~requests ~strategies () in
            let satisfied = ref 0 in
            Array.iteri
              (fun i _ ->
                match Workforce.request_requirement matrix aggregation ~k i with
                | Some { Workforce.workforce; _ } when workforce <= 0.85 -> incr satisfied
                | Some _ | None -> ())
              requests;
            float_of_int !satisfied /. 10.)
      in
      Tabular.add_row t
        [
          string_of_int k;
          Printf.sprintf "%.3f" (fraction Workforce.Sum_case);
          Printf.sprintf "%.3f" (fraction Workforce.Max_case);
        ])
    (Bench_common.values [ 1; 2; 5; 10 ]);
  Bench_common.print_table
    ~title:"(c) Sum-case (deploy all k) vs Max-case (deploy one of k) feasibility at W=0.85" t

let rtree_construction () =
  let t =
    Tabular.create
      ~columns:[ "n"; "bulk load (s)"; "insert (s)"; "bulk nodes"; "insert nodes" ]
  in
  List.iter
    (fun n ->
      let rng = Rng.create 24_000 in
      let entries =
        List.init n (fun i ->
            (P3.make (Rng.float rng 1.) (Rng.float rng 1.) (Rng.float rng 1.), i))
      in
      let bt, bulk = Bench_common.time (fun () -> Stratrec_geom.Rtree.bulk_load entries) in
      let it, inserted =
        Bench_common.time (fun () ->
            List.fold_left
              (fun t (p, v) -> Stratrec_geom.Rtree.insert t p v)
              (Stratrec_geom.Rtree.empty ())
              entries)
      in
      Tabular.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.5f" bt;
          Printf.sprintf "%.5f" it;
          string_of_int (List.length (Stratrec_geom.Rtree.nodes bulk));
          string_of_int (List.length (Stratrec_geom.Rtree.nodes inserted));
        ])
    (Bench_common.values (if !Bench_common.quick then [ 1000 ] else [ 1000; 5000; 20000 ]));
  Bench_common.print_table ~title:"(d) R-tree construction behind Baseline3" t

let run () =
  Bench_common.section "Ablations";
  adpar_pruning ();
  adpar_skyband ();
  best_single_correction ();
  aggregation_cases ();
  rtree_construction ()
