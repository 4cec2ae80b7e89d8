(* Shared helpers for the experiment harness. *)

module Rng = Stratrec_util.Rng
module Stats = Stratrec_util.Stats
module Model = Stratrec_model

(* Quick mode shrinks the expensive sweeps so the whole harness stays under
   a minute; full mode matches the paper's scales. Smoke mode (CI's
   bench-smoke target) shrinks further: one run of one value per sweep,
   just enough to prove every experiment still executes end to end. *)
let quick = ref false
let smoke = ref false

let scale n = if !smoke then max 1 (n / 100) else if !quick then max 1 (n / 10) else n

(* Per-sweep repetition count / value list under the current mode. *)
let runs n = if !smoke then 1 else n
let values l = if !smoke then [ List.hd l ] else l

(* One scanner for every "--flag VALUE" argument — main.ml used to
   hand-roll a recursive finder per flag. *)
let flag_value flag args =
  let rec find = function
    | f :: value :: _ when String.equal f flag -> Some value
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

(* The harness-wide trace (--trace FILE): experiments and the per-experiment
   root spans in main.ml write into it; noop unless tracing is on. *)
let trace = ref Stratrec_obs.Trace.noop

(* Wall-clock seconds of a thunk. *)
let time f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (Unix.gettimeofday () -. start, result)

let mean_over_runs ~runs f =
  let samples = Array.init runs (fun i -> f (Rng.create (1000 + i))) in
  Stats.mean samples

(* Per-request feasibility fraction, the Fig. 14 metric: a request counts as
   satisfied when its aggregated workforce requirement exists and fits the
   available workforce on its own (the paper's batch sweep keeps requests
   i.i.d., so the metric is independent of batch interference). Computed
   streaming — a k-smallest tracker per request instead of the full m x |S|
   matrix — so the m = |S| = 10000 sweep stays in O(k) memory. *)
let percent_satisfied rng ~n ~m ~k ~w ~kind =
  let strategies = Model.Workload.strategies rng ~n ~kind in
  let requests = Model.Workload.requests rng ~m ~k in
  let satisfied = ref 0 in
  Array.iter
    (fun d ->
      match
        Model.Workforce.streaming_requirement ~rule:`Paper_equality Model.Workforce.Max_case ~k
          ~strategies d
      with
      | Some { Model.Workforce.workforce; _ } when workforce <= w -> incr satisfied
      | Some _ | None -> ())
    requests;
  float_of_int !satisfied /. float_of_int m

(* Requests strict enough that ADPaR has real work to do: demanding quality,
   tight cost and latency budgets. *)
let hard_requests rng ~m ~k =
  Array.init m (fun id ->
      let params =
        Model.Params.make
          ~quality:(Rng.uniform rng ~lo:0.85 ~hi:1.)
          ~cost:(Rng.uniform rng ~lo:0. ~hi:0.3)
          ~latency:(Rng.uniform rng ~lo:0. ~hi:0.3)
      in
      Model.Deployment.make ~id ~params ~k ())

(* When --csv DIR is given, every printed table is also written to
   DIR/<section>--<slug>.csv for plotting; the section prefix keeps the
   recurring sweep titles ("(a) varying k", ...) from colliding across
   experiments. *)
let csv_dir : string option ref = ref None
let csv_prefix = ref ""

let slugify title =
  String.to_seq title
  |> Seq.map (fun c ->
         match c with
         | 'a' .. 'z' | '0' .. '9' -> c
         | 'A' .. 'Z' -> Char.lowercase_ascii c
         | _ -> '-')
  |> String.of_seq
  |> String.split_on_char '-'
  |> List.filter (fun part -> part <> "")
  |> String.concat "-"

let section title =
  Printf.printf "\n############ %s ############\n\n" title;
  let slug = slugify title in
  csv_prefix := (if String.length slug > 12 then String.sub slug 0 12 else slug)

let print_table ?slug ~title table =
  Stratrec_util.Tabular.print ~title table;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let slug = Option.value slug ~default:(slugify title) in
      let name = if !csv_prefix = "" then slug else !csv_prefix ^ "--" ^ slug in
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Stratrec_util.Tabular.to_csv table))
