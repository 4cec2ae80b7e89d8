module Workforce = Stratrec_model.Workforce
module Deployment = Stratrec_model.Deployment

type candidate = { index : int; weight : float; value : float; chosen : int list }

let candidates_of_matrix ~objective ~aggregation matrix =
  let requests = matrix.Workforce.requests in
  let out = ref [] in
  for i = Array.length requests - 1 downto 0 do
    let d = requests.(i) in
    match Workforce.request_requirement matrix aggregation ~k:d.Deployment.k i with
    | None -> ()
    | Some { Workforce.workforce; chosen } ->
        out := { index = i; weight = workforce; value = Objective.value objective d; chosen } :: !out
  done;
  !out

let outcome_of_selection ~m selection =
  let taken = List.map (fun c -> c.index) selection in
  {
    Batchstrat.satisfied =
      List.map
        (fun c ->
          { Batchstrat.request_index = c.index; strategy_indices = c.chosen; workforce = c.weight })
        selection;
    unsatisfied = List.init m Fun.id |> List.filter (fun i -> not (List.mem i taken));
    objective_value = List.fold_left (fun acc c -> acc +. c.value) 0. selection;
    workforce_used = List.fold_left (fun acc c -> acc +. c.weight) 0. selection;
  }

let brute_force ~objective ~aggregation ~available matrix =
  let m = Array.length matrix.Workforce.requests in
  let candidates = Array.of_list (candidates_of_matrix ~objective ~aggregation matrix) in
  let n = Array.length candidates in
  (* Suffix sums of values allow pruning branches that cannot beat the
     incumbent even by taking everything that remains. *)
  let suffix_value = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    suffix_value.(i) <- suffix_value.(i + 1) +. candidates.(i).value
  done;
  let best_value = ref neg_infinity and best_set = ref [] in
  let rec explore i used value selection =
    if value +. suffix_value.(i) <= !best_value then ()
    else if i = n then begin
      if value > !best_value then begin
        best_value := value;
        best_set := selection
      end
    end
    else begin
      let c = candidates.(i) in
      if used +. c.weight <= available +. 1e-12 then
        explore (i + 1) (used +. c.weight) (value +. c.value) (c :: selection);
      explore (i + 1) used value selection
    end
  in
  explore 0 0. 0. [];
  if !best_value = neg_infinity then best_value := 0.;
  outcome_of_selection ~m (List.rev !best_set)

let baseline_g ~objective ~aggregation ~available matrix =
  let m = Array.length matrix.Workforce.requests in
  let candidates = candidates_of_matrix ~objective ~aggregation matrix in
  let density c = if c.weight = 0. then infinity else c.value /. c.weight in
  let sorted =
    List.stable_sort
      (fun a b ->
        let c = Float.compare (density b) (density a) in
        if c <> 0 then c else Int.compare a.index b.index)
      candidates
  in
  let selection, _ =
    List.fold_left
      (fun (taken, used) c ->
        if used +. c.weight <= available +. 1e-12 then (c :: taken, used +. c.weight)
        else (taken, used))
      ([], 0.) sorted
  in
  outcome_of_selection ~m (List.rev selection)

let approximation_factor ~exact ~approx =
  let e = exact.Batchstrat.objective_value and a = approx.Batchstrat.objective_value in
  if e = 0. then 1. else a /. e
