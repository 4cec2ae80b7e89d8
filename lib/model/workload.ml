module Rng = Stratrec_util.Rng
module Distribution = Stratrec_util.Distribution

type dist_kind = Uniform | Normal

let dist_kind_to_string = function Uniform -> "uniform" | Normal -> "normal"

let dist_kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "uniform" -> Ok Uniform
  | "normal" -> Ok Normal
  | other -> Error (Printf.sprintf "unknown distribution %S (uniform|normal)" other)

let param_distribution = function
  | Uniform -> Distribution.Uniform { lo = 0.5; hi = 1. }
  | Normal -> Distribution.Truncated_normal { mu = 0.75; sigma = 0.1; lo = 0.; hi = 1. }

let clamp01 v = Float.max 0. (Float.min 1. v)

let strategies rng ~n ~kind =
  let dist = param_distribution kind in
  let combos = Array.of_list Dimension.all_combos in
  Array.init n (fun id ->
      let draw () = clamp01 (Distribution.sample dist rng) in
      let params = Params.make ~quality:(draw ()) ~cost:(draw ()) ~latency:(draw ()) in
      let model = Linear_model.synthetic rng in
      let combo = combos.(id mod Array.length combos) in
      Strategy.make ~id
        ~label:(Printf.sprintf "%s#%d" (Dimension.combo_label combo) id)
        ~stages:[ combo ] ~params ~model ())

let requests_with rng ~m ~k ~dist =
  Array.init m (fun id ->
      (* Thresholds are drawn in the normalized smaller-is-better space of
         §4.1 (quality inverted), so a draw of 0.8 means a generous budget
         on every axis; the quality lower bound maps back as 1 - draw. *)
      let draw () = clamp01 (Distribution.sample dist rng) in
      let params =
        Params.make ~quality:(1. -. draw ()) ~cost:(draw ()) ~latency:(draw ())
      in
      Deployment.make ~id ~params ~k ())

let requests rng ~m ~k =
  requests_with rng ~m ~k ~dist:(Distribution.Uniform { lo = 0.625; hi = 1. })

let workflows rng ~n ~stages ~kind =
  if stages < 1 then invalid_arg "Workload.workflows: stages must be >= 1";
  let dist = param_distribution kind in
  let combos = Array.of_list Dimension.all_combos in
  Array.init n (fun id ->
      let draw () = clamp01 (Distribution.sample dist rng) in
      let stage_list =
        List.init stages (fun _ -> combos.(Rng.int rng (Array.length combos)))
      in
      let stage_params =
        List.map (fun _ -> (draw (), draw (), draw ())) stage_list
      in
      let sf = float_of_int stages in
      let quality =
        (* Sequential hand-offs compound imperfections: geometric mean. *)
        exp (List.fold_left (fun acc (q, _, _) -> acc +. log (Float.max 1e-6 q)) 0. stage_params /. sf)
      in
      let cost =
        List.fold_left (fun acc (_, c, _) -> acc +. c) 0. stage_params /. sf
      in
      let latency =
        (* Consecutive simultaneous stages overlap; sequential ones add.
           Normalized by the stage count so the value stays in [0,1]. *)
        let rec spans acc current = function
          | [] -> List.rev (if current = [] then acc else current :: acc)
          | (combo, l) :: rest -> (
              match combo.Dimension.structure with
              | Dimension.Simultaneous -> spans acc (l :: current) rest
              | Dimension.Sequential ->
                  let acc = if current = [] then acc else current :: acc in
                  spans ([ l ] :: acc) [] rest)
        in
        let grouped = spans [] [] (List.combine stage_list (List.map (fun (_, _, l) -> l) stage_params)) in
        List.fold_left (fun acc span -> acc +. List.fold_left Float.max 0. span) 0. grouped
        /. float_of_int (max 1 (List.length grouped))
      in
      let params = Params.make ~quality:(clamp01 quality) ~cost:(clamp01 cost) ~latency:(clamp01 latency) in
      Strategy.make ~id ~stages:stage_list ~params ~model:(Linear_model.synthetic rng) ())
