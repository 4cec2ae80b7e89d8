module Params = Stratrec_model.Params
module Strategy = Stratrec_model.Strategy
module Deployment = Stratrec_model.Deployment
module Point3 = Stratrec_geom.Point3
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

(* The inverted-space comparison of [Params.to_point] coordinates,
   written on the params themselves so a catalog scan allocates nothing. *)
let covers ~(alternative : Params.t) s =
  let p = s.Strategy.params in
  1. -. p.Params.quality <= 1. -. alternative.quality +. epsilon
  && p.Params.cost <= alternative.cost +. epsilon
  && p.Params.latency <= alternative.latency +. epsilon

(* The relaxation triples of the whole catalog as three flat float
   arrays in catalog order: the same float expressions as
   [relaxations_of], without a record or a Point3 per strategy. *)
type flat = { q : float array; c : float array; l : float array }

let flat_relaxations ~strategies request =
  let rp = request.Deployment.params in
  let n = Array.length strategies in
  let q = Array.create_float n and c = Array.create_float n and l = Array.create_float n in
  for i = 0 to n - 1 do
    let sp = strategies.(i).Strategy.params in
    q.(i) <- Float.max 0. ((1. -. sp.Params.quality) -. (1. -. rp.Params.quality));
    c.(i) <- Float.max 0. (sp.Params.cost -. rp.Params.cost);
    l.(i) <- Float.max 0. (sp.Params.latency -. rp.Params.latency)
  done;
  { q; c; l }

(* The triples of [members] (catalog indices, ascending), in that order. *)
let gather { q; c; l } members =
  let b = Array.length members in
  let q' = Array.create_float b and c' = Array.create_float b and l' = Array.create_float b in
  Array.iteri
    (fun j i ->
      q'.(j) <- q.(i);
      c'.(j) <- c.(i);
      l'.(j) <- l.(i))
    members;
  { q = q'; c = c'; l = l' }

(* Indices of [key] ordered by Float.compare, ties in [start]'s order
   (default: by index; the array is consumed): a bottom-up merge sort,
   stable. Unlike [Array.sort] on an index array it is monomorphic, so no
   comparison is a closure call and no element read checks for a float
   array. *)
let order_by ?start (key : float array) =
  let n = Array.length key in
  let src = ref (match start with Some order -> order | None -> Array.init n Fun.id)
  and dst = ref (Array.make n 0) in
  let width = ref 1 in
  while !width < n do
    let a = !src and b = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min (!lo + !width) n and hi = Int.min (!lo + (2 * !width)) n in
      let i = ref !lo and j = ref mid in
      for d = !lo to hi - 1 do
        if !i < mid && (!j >= hi || Float.compare key.(a.(!j)) key.(a.(!i)) >= 0) then begin
          b.(d) <- a.(!i);
          incr i
        end
        else begin
          b.(d) <- a.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := b;
    dst := a;
    width := 2 * !width
  done;
  !src

(* --- The k-skyband ---

   Each relaxation is a monotone function of one inverted coordinate
   (1 - quality, cost, latency), taken as the very floats
   [flat_relaxations] subtracts from. So when [j] dominates [i] (<= on
   all three, and < on one or earlier in the array), [j]'s relaxation
   triple is <= [i]'s for every request, and a strategy with k
   dominators can be exchanged out of any k-cover without raising its
   envelope (DESIGN.md §5). The sweep then needs only the strategies
   with fewer than k dominators. Counts stop at [skyband_cap]. *)

let skyband_cap = 10

type skyband = { source : Strategy.t array; dominators : int array }

let skyband strategies =
  let n = Array.length strategies in
  let a = Array.create_float n and b = Array.create_float n and d = Array.create_float n in
  for i = 0 to n - 1 do
    let p = strategies.(i).Strategy.params in
    a.(i) <- 1. -. p.Params.quality;
    b.(i) <- p.Params.cost;
    d.(i) <- p.Params.latency
  done;
  let by_a = order_by a in
  let dominators = Array.make n 0 in
  for i = 0 to n - 1 do
    let ai = a.(i) and bi = b.(i) and di = d.(i) in
    (* A dominator's first coordinate is <= a_i: scan the ascending
       order up to the first larger one, or to the cap-th dominator. *)
    let count = ref 0 and r = ref 0 in
    while !count < skyband_cap && !r < n && not (a.(by_a.(!r)) > ai) do
      let j = by_a.(!r) in
      if
        j <> i
        && a.(j) <= ai && b.(j) <= bi && d.(j) <= di
        && (a.(j) < ai || b.(j) < bi || d.(j) < di || j < i)
      then incr count;
      incr r
    done;
    dominators.(i) <- !count
  done;
  { source = strategies; dominators }

let skyband_size sb ~k =
  if k > skyband_cap then Array.length sb.dominators
  else Array.fold_left (fun size count -> if count < k then size + 1 else size) 0 sb.dominators

(* The catalog indices the sweep needs for [k], ascending; [None] when
   that is the whole catalog, or [k] is above the cap. *)
let members sb ~k =
  let size = skyband_size sb ~k in
  if size = Array.length sb.dominators then None
  else begin
    let members = Array.make size 0 and next = ref 0 in
    Array.iteri
      (fun i count ->
        if count < k then begin
          members.(!next) <- i;
          incr next
        end)
      sb.dominators;
    Some members
  end

(* A max-heap of the k smallest latency relaxations seen on one cost
   sweep, ordered by Float.compare; once full, its root is the k-th
   smallest. [push] inserts [src.(j)], which must belong: the heap is
   not full, or the value is below the root, which it evicts. Taking the
   value by index keeps it unboxed. *)
type kheap = { data : float array; mutable size : int }

let push h (src : float array) j =
  let v = src.(j) and k = Array.length h.data in
  if h.size < k then begin
    let pos = ref h.size in
    h.size <- h.size + 1;
    while !pos > 0 && Float.compare h.data.((!pos - 1) / 2) v < 0 do
      h.data.(!pos) <- h.data.((!pos - 1) / 2);
      pos := (!pos - 1) / 2
    done;
    h.data.(!pos) <- v
  end
  else begin
    let pos = ref 0 and sifting = ref true in
    while !sifting do
      let left = (2 * !pos) + 1 in
      let child =
        if left + 1 < k && Float.compare h.data.(left + 1) h.data.(left) > 0 then left + 1
        else left
      in
      if child < k && Float.compare h.data.(child) v > 0 then begin
        h.data.(!pos) <- h.data.(child);
        pos := child
      end
      else sifting := false
    done;
    h.data.(!pos) <- v
  end

(* Exhaustive-but-pruned scan over the discrete candidate space of Lemma 1/2:
   the optimal relaxation triple (x, y, z) has x among the distinct quality
   relaxations (plus 0), y among the cost relaxations of strategies eligible
   at x, and z the k-th smallest latency relaxation of the strategies
   eligible at (x, y). The objective is the paper's plain L2,
   x^2 + y^2 + z^2. Returns the best triple (None when n < k), the sweep
   events visited and the prune cut-offs taken. *)
let search ~prune ~latency_ties ~k { q; c; l } =
  let n = Array.length q in
  if n < k then (None, 0, 0)
  else begin
    (* Quality candidates, ascending and distinct. Relaxations are never
       below 0, so 0 leads. *)
    let by_quality = order_by q in
    let xs = Array.make (n + 1) 0. in
    let nx = ref 1 in
    Array.iter
      (fun i ->
        if Float.compare q.(i) xs.(!nx - 1) <> 0 then begin
          xs.(!nx) <- q.(i);
          incr nx
        end)
      by_quality;
    (* The cost sweep line, shared by every quality step: strategies by
       cost relaxation, then index, with their triples gathered in that
       order. A skyband sweep breaks cost ties by latency relaxation
       first, so inside a tie it reaches its smallest z no later than
       the full sweep does, and never visits more events (DESIGN.md §5). *)
    let by_cost = if latency_ties then order_by ~start:(order_by l) c else order_by c in
    let sq = Array.create_float n and sc = Array.create_float n and sl = Array.create_float n in
    Array.iteri
      (fun j i ->
        sq.(j) <- q.(i);
        sc.(j) <- c.(i);
        sl.(j) <- l.(i))
      by_cost;
    let heap = { data = Array.create_float k; size = 0 } in
    let events = ref 0 and cutoffs = ref 0 in
    let best_sq = ref infinity and found = ref false in
    let bx = ref 0. and by = ref 0. and bz = ref 0. in
    (* Ascending x: once the x term alone reaches the incumbent, no later x
       can improve (objective monotone in each coordinate, cf. Lemma 2). *)
    let i = ref 0 in
    while !i < !nx do
      let x = xs.(!i) in
      if (not prune) || x *. x < !best_sq then begin
        heap.size <- 0;
        let j = ref 0 in
        while !j < n do
          if sq.(!j) <= x then begin
            incr events;
            let y = sc.(!j) in
            if prune && (x *. x) +. (y *. y) >= !best_sq then begin
              incr cutoffs;
              j := n
            end
            else begin
              if heap.size < k || Float.compare sl.(!j) heap.data.(0) < 0 then
                push heap sl !j;
              if heap.size = k then begin
                let z = heap.data.(0) in
                let d = (x *. x) +. (y *. y) +. (z *. z) in
                if d < !best_sq then begin
                  best_sq := d;
                  found := true;
                  bx := x;
                  by := y;
                  bz := z
                end
              end
            end
          end;
          incr j
        done;
        incr i
      end
      else begin
        incr cutoffs;
        i := !nx
      end
    done;
    ((if !found then Some (!bx, !by, !bz) else None), !events, !cutoffs)
  end

(* The full sweep's z at its first optimum. The skyband sweep finds the
   full sweep's optimal x, y and squared distance, but among strategies
   that share the cost relaxation y the full sweep may reach that
   distance one strategy earlier, at a larger z whose square vanishes in
   the rounding of x^2 + y^2 + z^2. One pass over the whole catalog
   replays the full sweep's heap at x: the strategies it visits before
   y, then those at y in catalog order, its tie order, up to the first
   that reaches the optimum. *)
let first_optimum ~k { q; c; l } (x, y, z) =
  let best = (x *. x) +. (y *. y) +. (z *. z) in
  let heap = { data = Array.create_float k; size = 0 } in
  let offer i = if heap.size < k || Float.compare l.(i) heap.data.(0) < 0 then push heap l i in
  let n = Array.length q in
  for i = 0 to n - 1 do
    if q.(i) <= x && Float.compare c.(i) y < 0 then offer i
  done;
  let rec at_y i =
    if i = n then z
    else if q.(i) <= x && Float.compare c.(i) y = 0 then begin
      offer i;
      if heap.size = k && (x *. x) +. (y *. y) +. (heap.data.(0) *. heap.data.(0)) <= best
      then heap.data.(0)
      else at_y (i + 1)
    end
    else at_y (i + 1)
  in
  (x, y, at_y 0)

(* One pass over the catalog: the first k covered strategies in catalog
   order, and how many are covered in all. *)
let build_result ~k ~strategies request (x, y, z) =
  let rp = Params.to_point request.Deployment.params in
  let alternative_point =
    Point3.make (Point3.coord rp 0 +. x) (Point3.coord rp 1 +. y) (Point3.coord rp 2 +. z)
  in
  let alternative = Params.of_point alternative_point in
  let covered = ref 0 and recommended = ref [] in
  Array.iter
    (fun s ->
      if covers ~alternative s then begin
        if !covered < k then recommended := s :: !recommended;
        incr covered
      end)
    strategies;
  {
    alternative;
    distance = sqrt ((x *. x) +. (y *. y) +. (z *. z));
    recommended = List.rev !recommended;
    covered_count = !covered;
  }

type answer = {
  result : result option;
  k : int;
  catalog_size : int;
  sweep_events : int;
  prune_cutoffs : int;
  search_seconds : float;
}

let answer ?(clock = Fun.const 0.) ?(prune = true) ?skyband ?k ~strategies request =
  let k = Option.value k ~default:request.Deployment.k in
  if k < 1 then invalid_arg "Adpar.exact: k must be >= 1";
  let members =
    Option.bind skyband (fun sb ->
        if sb.source != strategies then
          invalid_arg "Adpar.exact: the skyband was built from another catalog";
        members sb ~k)
  in
  let started = clock () in
  (* The three sweep-line phases of ADPaR-Exact: build the relaxation
     event queue, sweep it, then reconstruct the envelope d' and its
     k-cover. *)
  let relax = flat_relaxations ~strategies request in
  let swept = match members with Some m -> gather relax m | None -> relax in
  let best, sweep_events, prune_cutoffs =
    search ~prune ~latency_ties:(Option.is_some members) ~k swept
  in
  let best =
    if Option.is_some members then Option.map (first_optimum ~k relax) best else best
  in
  let result = Option.map (build_result ~k ~strategies request) best in
  {
    result;
    k;
    catalog_size = Array.length strategies;
    sweep_events;
    prune_cutoffs;
    search_seconds = clock () -. started;
  }

let count metrics name by =
  if by > 0 then Obs.Registry.incr_by (Obs.Registry.counter metrics name) by

let record ?(metrics = Obs.Registry.noop) ?(trace = Obs.Trace.noop) a =
  count metrics "adpar.calls_total" 1;
  if Obs.Trace.enabled trace then
    Obs.Trace.span trace "adpar.exact"
      ~attrs:[ ("k", Obs.Trace.Int a.k); ("strategies", Obs.Trace.Int a.catalog_size) ]
      (fun () ->
        match a.result with
        | Some r -> Obs.Trace.add_attr trace "distance" (Obs.Trace.Float r.distance)
        | None -> Obs.Trace.add_attr trace "no_alternative" (Obs.Trace.Bool true));
  Obs.Span.observe metrics "adpar.search_seconds" a.search_seconds;
  count metrics "adpar.sweep_events_total" a.sweep_events;
  count metrics "adpar.prune_cutoffs_total" a.prune_cutoffs;
  if Option.is_none a.result then count metrics "adpar.no_alternative_total" 1

let exact ?(metrics = Obs.Registry.noop) ?trace ?prune ?skyband ?k ~strategies request =
  let a =
    answer ~clock:(fun () -> Obs.Registry.now metrics) ?prune ?skyband ?k ~strategies request
  in
  record ~metrics ?trace a;
  a.result

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
