module Params = Stratrec_model.Params
module Strategy = Stratrec_model.Strategy
module Deployment = Stratrec_model.Deployment
module Point3 = Stratrec_geom.Point3
module Kselect = Stratrec_util.Kselect
module Obs = Stratrec_obs

type result = {
  alternative : Params.t;
  distance : float;
  recommended : Strategy.t list;
  covered_count : int;
}

type relaxation = { strategy_id : int; quality : float; cost : float; latency : float }
type event = { value : float; strategy_id : int; axis : Params.axis }

type trace = {
  relaxations : relaxation list;
  events : event list;
  sweep_orders : (Params.axis * relaxation list) list;
  coverage : (int * bool * bool * bool) list;
}

let relaxations_of ~strategies request =
  let rp = Params.to_point request.Deployment.params in
  Array.map
    (fun s ->
      let sp = Strategy.point s in
      {
        strategy_id = s.Strategy.id;
        quality = Float.max 0. (Point3.coord sp 0 -. Point3.coord rp 0);
        cost = Float.max 0. (Point3.coord sp 1 -. Point3.coord rp 1);
        latency = Float.max 0. (Point3.coord sp 2 -. Point3.coord rp 2);
      })
    strategies

let epsilon = 1e-9

let covers ~alternative s =
  let a = Params.to_point alternative and p = Strategy.point s in
  Point3.coord p 0 <= Point3.coord a 0 +. epsilon
  && Point3.coord p 1 <= Point3.coord a 1 +. epsilon
  && Point3.coord p 2 <= Point3.coord a 2 +. epsilon

(* Exhaustive-but-pruned scan over the discrete candidate space of Lemma 1/2:
   the optimal relaxation triple (x, y, z) has x among the distinct quality
   relaxations (plus 0), y among the cost relaxations of strategies eligible
   at x, and z the k-th smallest latency relaxation of the strategies
   eligible at (x, y). The objective is the paper's plain L2,
   x^2 + y^2 + z^2. Returns the best triple, or None when n < k. *)
let search ?(metrics = Obs.Registry.noop) ?(prune = true) ~k relax =
  let sweep_events = Obs.Registry.counter metrics "adpar.sweep_events_total" in
  let prune_cutoffs = Obs.Registry.counter metrics "adpar.prune_cutoffs_total" in
  let n = Array.length relax in
  if n < k then None
  else begin
    let xs =
      Array.to_list relax
      |> List.map (fun r -> r.quality)
      |> List.cons 0.
      |> List.sort_uniq Float.compare
    in
    (* Strategy indices sorted by cost relaxation ascending — the cost
       sweep line, shared by every quality step. *)
    let by_cost = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let c = Float.compare relax.(i).cost relax.(j).cost in
        if c <> 0 then c else Int.compare i j)
      by_cost;
    let best_sq = ref infinity in
    let best = ref None in
    let consider x y z =
      let sq = (x *. x) +. (y *. y) +. (z *. z) in
      if sq < !best_sq then begin
        best_sq := sq;
        best := Some (x, y, z)
      end
    in
    (* Ascending x: once the x term alone reaches the incumbent, no later x
       can improve (objective monotone in each coordinate, cf. Lemma 2). *)
    let rec quality_sweep = function
      | [] -> ()
      | x :: rest ->
          if (not prune) || x *. x < !best_sq then begin
            let tracker = Kselect.Tracker.create ~cmp:Float.compare k in
            (let exception Break in
             try
               Array.iter
                 (fun i ->
                   let r = relax.(i) in
                   if r.quality <= x then begin
                     Obs.Registry.incr sweep_events;
                     let y = r.cost in
                     if prune && (x *. x) +. (y *. y) >= !best_sq then begin
                       Obs.Registry.incr prune_cutoffs;
                       raise Break
                     end;
                     Kselect.Tracker.add tracker r.latency;
                     match Kselect.Tracker.kth tracker with
                     | Some z -> consider x y z
                     | None -> ()
                   end)
                 by_cost
             with Break -> ());
            quality_sweep rest
          end
          else Obs.Registry.incr prune_cutoffs
    in
    quality_sweep xs;
    !best
  end

let build_result ~k ~strategies request (x, y, z) =
  let rp = Params.to_point request.Deployment.params in
  let alternative_point =
    Point3.make (Point3.coord rp 0 +. x) (Point3.coord rp 1 +. y) (Point3.coord rp 2 +. z)
  in
  let alternative = Params.of_point alternative_point in
  let covered = Array.to_list strategies |> List.filter (covers ~alternative) in
  let recommended = List.filteri (fun i _ -> i < k) covered in
  {
    alternative;
    distance = sqrt ((x *. x) +. (y *. y) +. (z *. z));
    recommended;
    covered_count = List.length covered;
  }

let exact ?(metrics = Obs.Registry.noop) ?(trace = Obs.Trace.noop) ?(prune = true) ?k
    ~strategies request =
  let k = Option.value k ~default:request.Deployment.k in
  if k < 1 then invalid_arg "Adpar.exact: k must be >= 1";
  Obs.Registry.incr (Obs.Registry.counter metrics "adpar.calls_total");
  let result =
    Obs.Trace.span trace "adpar.exact"
      ~attrs:
        [
          ("k", Obs.Trace.Int k);
          ("strategies", Obs.Trace.Int (Array.length strategies));
        ]
    @@ fun () ->
    Obs.Span.time metrics "adpar.search_seconds" (fun () ->
        (* The three sweep-line phases of ADPaR-Exact, each its own
           trace span: build the relaxation event queue, sweep it, then
           reconstruct the envelope d' and its k-cover. *)
        let relax =
          Obs.Trace.span trace "adpar.relaxations" (fun () ->
              relaxations_of ~strategies request)
        in
        let best =
          Obs.Trace.span trace "adpar.sweep" (fun () -> search ~metrics ~prune ~k relax)
        in
        let result =
          Obs.Trace.span trace "adpar.select" (fun () ->
              Option.map (build_result ~k ~strategies request) best)
        in
        (match result with
        | Some r -> Obs.Trace.add_attr trace "distance" (Obs.Trace.Float r.distance)
        | None -> Obs.Trace.add_attr trace "no_alternative" (Obs.Trace.Bool true));
        result)
  in
  if Option.is_none result then
    Obs.Registry.incr (Obs.Registry.counter metrics "adpar.no_alternative_total");
  result

let axis_value r = function
  | Params.Quality -> r.quality
  | Params.Cost -> r.cost
  | Params.Latency -> r.latency

let trace_of ~strategies request result =
  let relax = relaxations_of ~strategies request in
  let relaxations = Array.to_list relax in
  (* The paper's R/I/D list: a key-sorted sweep over all 3|S| relaxation
     values, stable so ties keep axis-then-catalog order (Table 4). *)
  let sweep =
    Stratrec_geom.Sweep.of_events
      (List.concat_map
         (fun axis ->
           List.map (fun r -> (axis_value r axis, (r.strategy_id, axis))) relaxations)
         Params.all_axes)
  in
  let events =
    List.init (Stratrec_geom.Sweep.length sweep) (fun i ->
        let strategy_id, axis = Stratrec_geom.Sweep.payload sweep i in
        { value = Stratrec_geom.Sweep.key sweep i; strategy_id; axis })
  in
  let sweep_orders =
    List.map
      (fun axis ->
        ( axis,
          List.stable_sort (fun a b -> Float.compare (axis_value a axis) (axis_value b axis))
            relaxations ))
      Params.all_axes
  in
  let a = Params.to_point result.alternative in
  let rp = Params.to_point request.Deployment.params in
  let allowance i = Point3.coord a i -. Point3.coord rp i in
  let coverage =
    List.map
      (fun (r : relaxation) ->
        ( r.strategy_id,
          r.quality <= allowance 0 +. epsilon,
          r.cost <= allowance 1 +. epsilon,
          r.latency <= allowance 2 +. epsilon ))
      relaxations
  in
  { relaxations; events; sweep_orders; coverage }

let exact_with_trace ?k ~strategies request =
  match exact ?k ~strategies request with
  | None -> None
  | Some result -> Some (result, trace_of ~strategies request result)
