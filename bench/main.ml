(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index) and finishes with
   Bechamel micro-benchmarks of each experiment's kernel. Performance
   regressions are gated by perfbench/, not here.

   Usage:
     dune exec bench/main.exe                  full run
     dune exec bench/main.exe -- --quick       scaled-down sizes
     dune exec bench/main.exe -- --smoke       one tiny iteration of each sweep (CI)
     dune exec bench/main.exe -- --only fig17  a single experiment
     dune exec bench/main.exe -- --csv out/    also write each table as CSV
     dune exec bench/main.exe -- --trace f.json  write a Chrome trace of the run *)

module Obs = Stratrec_obs

let experiments =
  [
    ("example", Exp_example.run);
    ("real-data", Exp_real_data.run);
    ("fig14", Exp_fig14.run);
    ("fig15-16", Exp_fig15_16.run);
    ("fig17", Exp_fig17.run);
    ("fig18", Exp_fig18.run);
    ("ablation", Exp_ablation.run);
    ("par", Exp_par.run);
    ("cache", Exp_cache.run);
    ("chaos", Exp_chaos.run);
    ("bechamel", Bechamel_suite.run);
  ]

let usage =
  "usage: stratrec-bench [--quick | --smoke] [--only EXPERIMENT] [--csv DIR] [--trace FILE]"

(* The first argument that is not one of the flags above (or a flag
   missing its value): anything unrecognised is a usage error rather than
   being ignored into a silent full run. *)
let rec unexpected = function
  | [] -> None
  | ("--quick" | "--smoke") :: rest | ("--only" | "--csv" | "--trace") :: _ :: rest ->
      unexpected rest
  | arg :: _ -> Some arg

let run_harness args =
  if List.mem "--quick" args then Bench_common.quick := true;
  if List.mem "--smoke" args then begin
    (* Smoke implies quick; the smoke-specific refs shrink further. *)
    Bench_common.quick := true;
    Bench_common.smoke := true
  end;
  let trace_path = Bench_common.flag_value "--trace" args in
  if Option.is_some trace_path then Bench_common.trace := Obs.Trace.create ();
  (match Bench_common.flag_value "--csv" args with
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Bench_common.csv_dir := Some dir
  | None -> ());
  let to_run =
    match Bench_common.flag_value "--only" args with
    | None -> experiments
    | Some name -> (
        match List.assoc_opt name experiments with
        | Some run -> [ (name, run) ]
        | None ->
            Printf.eprintf "unknown experiment %S; available: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
  in
  List.iter (fun (name, run) -> Obs.Trace.span !Bench_common.trace ("bench." ^ name) run) to_run;
  match trace_path with
  | None -> ()
  | Some path -> (
      let trace = !Bench_common.trace in
      let rendered =
        Stratrec_util.Json.to_string ~indent:1 (Obs.Trace.to_chrome_json trace) ^ "\n"
      in
      try
        Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc rendered);
        Printf.printf "\nwrote %d trace spans to %s\n" (Obs.Trace.span_count trace) path
      with Sys_error message ->
        Printf.eprintf "cannot write trace: %s\n" message;
        exit 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match unexpected args with
  | Some arg ->
      Printf.eprintf "stratrec-bench: unexpected argument %S\n%s\n" arg usage;
      exit 2
  | None -> run_harness args
