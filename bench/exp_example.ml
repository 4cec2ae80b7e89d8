(* Experiments T1 and T2-T5: the paper's running example.

   T1 regenerates Table 1 together with the worked outcomes of §2.2/§2.3;
   T2-T5 regenerate ADPaR-Exact's internal structures for request d2. The
   printed Table 3 uses the corrected column headers (the paper's version
   swaps Quality and Cost). *)

module Tabular = Stratrec_util.Tabular
module Model = Stratrec_model
module Params = Model.Params
module Adpar = Stratrec.Adpar

let table1 () =
  Bench_common.section "Table 1 - deployment requests and strategies (Example 1)";
  let t = Tabular.create ~columns:[ "Entity"; "Quality"; "Cost"; "Latency" ] in
  Array.iter
    (fun d ->
      Tabular.add_float_row t ~decimals:2 d.Model.Deployment.label
        [
          d.Model.Deployment.params.Params.quality;
          d.Model.Deployment.params.Params.cost;
          d.Model.Deployment.params.Params.latency;
        ])
    (Model.Paper_example.requests ());
  Array.iter
    (fun s ->
      Tabular.add_float_row t ~decimals:2
        (Printf.sprintf "s%d" s.Model.Strategy.id)
        [
          s.Model.Strategy.params.Params.quality;
          s.Model.Strategy.params.Params.cost;
          s.Model.Strategy.params.Params.latency;
        ])
    (Model.Paper_example.strategies ());
  Bench_common.print_table ~title:"Table 1 entities" t;
  let report =
    Stratrec.Aggregator.run ~trace:!Bench_common.trace
      ~availability:(Model.Paper_example.availability ())
      ~strategies:(Model.Paper_example.strategies ())
      ~requests:(Model.Paper_example.requests ())
      ()
  in
  Format.printf "%a@." Stratrec.Aggregator.pp_report report

let tables_2_to_5 () =
  Bench_common.section "Tables 2-5 - ADPaR-Exact working structures for d2";
  let strategies = Model.Paper_example.strategies () in
  let d2 = Model.Paper_example.request 2 in
  match Adpar.exact_with_trace ~strategies d2 with
  | None -> print_endline "catalog smaller than k"
  | Some (result, trace) ->
      let t3 = Tabular.create ~columns:[ "Strategy"; "Quality"; "Cost"; "Latency" ] in
      List.iter
        (fun (r : Adpar.relaxation) ->
          Tabular.add_float_row t3 ~decimals:2
            (Printf.sprintf "s%d" r.Adpar.strategy_id)
            [ r.Adpar.quality; r.Adpar.cost; r.Adpar.latency ])
        trace.Adpar.relaxations;
      Bench_common.print_table ~title:"Table 3 (step 1): per-axis relaxations" t3;
      let t4 = Tabular.create ~columns:[ "R"; "I"; "D" ] in
      List.iter
        (fun (e : Adpar.event) ->
          Tabular.add_row t4
            [
              Printf.sprintf "%.2f" e.Adpar.value;
              Printf.sprintf "s%d" e.Adpar.strategy_id;
              Params.axis_label e.Adpar.axis;
            ])
        trace.Adpar.events;
      Bench_common.print_table ~title:"Table 4 (step 2): sorted relaxation list" t4;
      List.iter
        (fun (axis, rs) ->
          let t5 = Tabular.create ~columns:[ "Strategy"; "Quality"; "Cost"; "Latency" ] in
          List.iter
            (fun (r : Adpar.relaxation) ->
              Tabular.add_float_row t5 ~decimals:2
                (Printf.sprintf "s%d" r.Adpar.strategy_id)
                [ r.Adpar.quality; r.Adpar.cost; r.Adpar.latency ])
            rs;
          Bench_common.print_table
            ~title:
              (Printf.sprintf "Table 5 (step 3): sweep-line(%s) order" (Params.axis_label axis))
            t5)
        trace.Adpar.sweep_orders;
      let t2 = Tabular.create ~columns:[ "Strategy"; "Quality"; "Cost"; "Latency" ] in
      List.iter
        (fun (id, q, c, l) ->
          let mark b = if b then "1" else "0" in
          Tabular.add_row t2 [ Printf.sprintf "s%d" id; mark q; mark c; mark l ])
        trace.Adpar.coverage;
      Bench_common.print_table ~title:"Table 2: coverage matrix M at termination" t2;
      Format.printf "d' = %a, distance %.4f, covered %d@." Params.pp result.Adpar.alternative
        result.Adpar.distance result.Adpar.covered_count

let run () =
  table1 ();
  tables_2_to_5 ()
