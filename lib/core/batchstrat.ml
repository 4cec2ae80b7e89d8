module Workforce = Stratrec_model.Workforce
module Obs = Stratrec_obs

type satisfied = { request_index : int; strategy_indices : int list; workforce : float }

type outcome = {
  satisfied : satisfied list;
  unsatisfied : int list;
  objective_value : float;
  workforce_used : float;
}

(* Candidate request: aggregated workforce requirement, chosen strategies and
   objective contribution. *)
type candidate = { index : int; weight : float; value : float; chosen : int list }

let greedy_fill candidates ~available =
  (* Candidates come sorted by value density; take every one that still
     fits. The plain prefix rule of the paper is a special case (for
     throughput the two coincide because weights are sorted ascending). *)
  let taken, _ =
    List.fold_left
      (fun (taken, used) c ->
        if used +. c.weight <= available +. 1e-12 then (c :: taken, used +. c.weight)
        else (taken, used))
      ([], 0.) candidates
  in
  List.rev taken

let total_value taken = List.fold_left (fun acc c -> acc +. c.value) 0. taken
let total_weight taken = List.fold_left (fun acc c -> acc +. c.weight) 0. taken

let select ?(metrics = Obs.Registry.noop) ?(trace = Obs.Trace.noop) ~objective ~available
    ~requests requirements =
  let m = Array.length requests in
  if Array.length requirements <> m then
    invalid_arg "Batchstrat.select: requirements length mismatch";
  Obs.Trace.span trace "batchstrat.run"
    ~attrs:
      [
        ("objective", Obs.Trace.String (Objective.label objective));
        ("available", Obs.Trace.Float available);
      ]
  @@ fun () ->
  Obs.Registry.incr (Obs.Registry.counter metrics "batchstrat.runs_total");
  let span = Obs.Span.start metrics "batchstrat.greedy_seconds" in
  let greedy_passes = Obs.Registry.counter metrics "batchstrat.greedy_passes_total" in
  (* Requests without k feasible strategies never become candidates; they
     surface in [unsatisfied] below. *)
  let sorted =
    Obs.Trace.span trace "batchstrat.prune" @@ fun () ->
    let candidates = ref [] in
    for i = m - 1 downto 0 do
      match requirements.(i) with
      | None -> ()
      | Some { Workforce.workforce; chosen } ->
          candidates :=
            {
              index = i;
              weight = workforce;
              value = Objective.value objective requests.(i);
              chosen;
            }
            :: !candidates
    done;
    (* Sort by f_i / w_i non-increasing; zero-workforce requests first. Ties
       broken by input order for determinism. *)
    let density c = if c.weight = 0. then infinity else c.value /. c.weight in
    let sorted =
      List.stable_sort
        (fun a b ->
          let c = Float.compare (density b) (density a) in
          if c <> 0 then c else Int.compare a.index b.index)
        !candidates
    in
    Obs.Trace.add_attr trace "requests" (Obs.Trace.Int m);
    Obs.Trace.add_attr trace "candidates" (Obs.Trace.Int (List.length sorted));
    sorted
  in
  Obs.Registry.incr_by
    (Obs.Registry.counter metrics "batchstrat.candidates_total")
    (List.length sorted);
  let chosen_set =
    Obs.Trace.span trace "batchstrat.greedy" @@ fun () ->
    let greedy = greedy_fill sorted ~available in
    Obs.Registry.incr greedy_passes;
    if Objective.exact_greedy objective then greedy
    else begin
      (* 1/2-approximation: the better of the greedy set and the best
         single fitting request (Theorem 3; valid for any non-negative
         value function). *)
      Obs.Registry.incr greedy_passes;
      let best_single =
        List.filter (fun c -> c.weight <= available +. 1e-12) sorted
        |> List.fold_left
             (fun best c ->
               match best with
               | Some b when b.value >= c.value -> best
               | _ -> Some c)
             None
      in
      match best_single with
      | Some single when single.value > total_value greedy -> [ single ]
      | _ -> greedy
    end
  in
  (* Membership by bool-array mark: the old [List.mem] over the chosen
     list was O(m^2) per epoch at large batch sizes. Output is the same
     ascending index list. *)
  let taken = Array.make m false in
  List.iter (fun c -> taken.(c.index) <- true) chosen_set;
  let unsatisfied =
    List.init m Fun.id |> List.filter (fun i -> not taken.(i))
  in
  let workforce_used = total_weight chosen_set in
  Obs.Trace.add_attr trace "satisfied" (Obs.Trace.Int (List.length chosen_set));
  Obs.Trace.add_attr trace "workforce_used" (Obs.Trace.Float workforce_used);
  if available > 0. then
    Obs.Registry.set
      (Obs.Registry.gauge metrics "batchstrat.workforce_utilization")
      (workforce_used /. available);
  ignore (Obs.Span.finish span);
  {
    satisfied =
      List.map
        (fun c -> { request_index = c.index; strategy_indices = c.chosen; workforce = c.weight })
        chosen_set;
    unsatisfied;
    objective_value = total_value chosen_set;
    workforce_used;
  }

let run ?metrics ?trace ~objective ~aggregation ~available matrix =
  let requests = matrix.Workforce.requests in
  select ?metrics ?trace ~objective ~available ~requests
    (Array.mapi
       (fun i d ->
         Workforce.request_requirement matrix aggregation ~k:d.Stratrec_model.Deployment.k i)
       requests)

let satisfied_count outcome = List.length outcome.satisfied
