(* Tests for the workforce-requirement matrix, its aggregation and the
   scan that replaced it (§3.2). The inversion rules' own unit cases are
   in test_workforce_inversion. *)

module Model = Stratrec_model
module Params = Model.Params
module W = Model.Workforce
module Strategy = Model.Strategy
module Deployment = Model.Deployment
module LM = Model.Linear_model
module Rng = Stratrec_util.Rng

let combo = List.hd Model.Dimension.all_combos

let dummy_model =
  {
    Model.Linear_model.quality = { Model.Linear_model.alpha = 1.; beta = 0. };
    cost = { Model.Linear_model.alpha = 1.; beta = 0. };
    latency = { Model.Linear_model.alpha = -1.; beta = 1. };
  }

let strategy id =
  Strategy.single ~id combo
    ~params:(Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5)
    ~model:dummy_model

let request id k = Deployment.make ~id ~params:(Params.make ~quality:0.4 ~cost:0.6 ~latency:0.6) ~k ()

let model ~q ~c ~l =
  let pair (alpha, beta) = { LM.alpha; beta } in
  { LM.quality = pair q; cost = pair c; latency = pair l }

(* --- the matrix and its aggregation --- *)

(* A matrix with hand-set requirements via compute_with. *)
let matrix_of_rows rows =
  let m = Array.length rows and n = Array.length rows.(0) in
  let requests = Array.init m (fun i -> request i 2) in
  let strategies = Array.init n strategy in
  W.compute_with
    ~requirement:(fun d s -> rows.(d.Deployment.id).(s.Strategy.id))
    ~requests ~strategies

let test_aggregation_sum_and_max () =
  let matrix = matrix_of_rows [| [| Some 0.5; Some 0.2; None; Some 0.4 |] |] in
  (match W.request_requirement matrix W.Sum_case ~k:2 0 with
  | Some { W.workforce; chosen } ->
      Alcotest.(check (float 1e-9)) "sum of 2 smallest" 0.6 workforce;
      Alcotest.(check (list int)) "chosen ascending" [ 1; 3 ] chosen
  | None -> Alcotest.fail "expected a requirement");
  match W.request_requirement matrix W.Max_case ~k:2 0 with
  | Some { W.workforce; chosen } ->
      Alcotest.(check (float 1e-9)) "k-th smallest" 0.4 workforce;
      Alcotest.(check (list int)) "same chosen" [ 1; 3 ] chosen
  | None -> Alcotest.fail "expected a requirement"

let test_insufficient_candidates () =
  let matrix = matrix_of_rows [| [| Some 0.5; None; None; None |] |] in
  Alcotest.(check bool) "k=2 with one feasible" true
    (W.request_requirement matrix W.Sum_case ~k:2 0 = None);
  Alcotest.(check int) "feasible count" 1 (W.feasible_count matrix 0)

let test_k_validation () =
  let matrix = matrix_of_rows [| [| Some 0.5 |] |] in
  Alcotest.check_raises "k=0" (Invalid_argument "Workforce.request_requirement: k must be >= 1")
    (fun () -> ignore (W.request_requirement matrix W.Sum_case ~k:0 0))

(* The Sum-case adds from 0., so a lone -0. requirement sums to +0.;
   the Max-case returns the requirement itself. *)
let test_sum_starts_at_zero () =
  let matrix = matrix_of_rows [| [| None; Some (-0.) |] |] in
  let workforce aggregation =
    match W.request_requirement matrix aggregation ~k:1 0 with
    | Some { W.workforce; _ } -> workforce
    | None -> Alcotest.fail "expected a requirement"
  in
  Alcotest.(check bool) "sum is +0." false (Float.sign_bit (workforce W.Sum_case));
  Alcotest.(check bool) "max is -0." true (Float.sign_bit (workforce W.Max_case))

(* Strategies 0 and 1 meet the request at zero workforce, so the heap's
   root is 0. before strategy 2, whose cost cap (0.6 - (0.6 + 5e-10)) /.
   1. sits within the equality tolerance below 0.: its requirement is
   negative and must displace the root. *)
let test_negative_displaces_zero_root () =
  let free = model ~q:(1., 0.5) ~c:(1., 0.5) ~l:(-1., 0.5) in
  let capped = { free with LM.cost = { LM.alpha = 1.; beta = 0.6 +. 5e-10 } } in
  let strategies =
    Array.mapi
      (fun id m ->
        Strategy.single ~id combo
          ~params:(Params.make ~quality:0.5 ~cost:0.5 ~latency:0.5)
          ~model:m)
      [| free; free; capped |]
  in
  let d = request 0 2 in
  let matrix = W.compute ~requests:[| d |] ~strategies () in
  List.iter
    (fun (aggregation, name, expected) ->
      List.iter
        (fun (path, result) ->
          match result with
          | Some { W.workforce; chosen } ->
              Alcotest.(check (list int)) (path ^ " chosen") [ 2; 0 ] chosen;
              Alcotest.(check string) (path ^ " " ^ name) (Printf.sprintf "%h" expected)
                (Printf.sprintf "%h" workforce)
          | None -> Alcotest.fail (path ^ ": expected a requirement"))
        [
          ("scan", W.streaming_requirement aggregation ~k:2 ~strategies d);
          ("row", W.request_requirement matrix aggregation ~k:2 0);
        ])
    [ (W.Max_case, "Max-case", 0.); (W.Sum_case, "Sum-case", -0x1.12e0cp-31) ]

let test_vector () =
  let matrix =
    matrix_of_rows [| [| Some 0.1; Some 0.2 |]; [| None; Some 0.3 |]; [| Some 0.4; Some 0.5 |] |]
  in
  (* The paper's vector \vec{W}: one requirement per request row. *)
  let v = Array.init 3 (W.request_requirement matrix W.Sum_case ~k:2) in
  Alcotest.(check int) "length" 3 (Array.length v);
  (match v.(0) with
  | Some { W.workforce; _ } ->
      Alcotest.(check (float 1e-9)) "row 0" 0.3 workforce
  | None -> Alcotest.fail "row 0 should aggregate");
  Alcotest.(check bool) "row 1 infeasible" true (v.(1) = None);
  match v.(2) with
  | Some { W.workforce; _ } -> Alcotest.(check (float 1e-9)) "row 2" 0.9 workforce
  | None -> Alcotest.fail "row 2 should aggregate"

let test_compute_respects_satisfaction () =
  (* Strategy params (0.5, 0.5, 0.5); request requiring quality 0.6 cannot
     be satisfied no matter the model. *)
  let strategies = [| strategy 0 |] in
  let demanding =
    [| Deployment.make ~id:0 ~params:(Params.make ~quality:0.6 ~cost:1. ~latency:1.) ~k:1 () |]
  in
  let matrix = W.compute ~requests:demanding ~strategies () in
  Alcotest.(check int) "no feasible cell" 0 (W.feasible_count matrix 0);
  (* A satisfiable request yields the model inversion: quality 0.4 needs
     w = 0.4, latency 0.6 needs w = 0.4, cost cap 0.6 -> requirement 0.4. *)
  let ok = [| request 0 1 |] in
  let matrix = W.compute ~requests:ok ~strategies () in
  match W.request_requirement matrix W.Max_case ~k:1 0 with
  | Some { W.workforce; _ } -> Alcotest.(check (float 1e-9)) "inverted requirement" 0.4 workforce
  | None -> Alcotest.fail "expected feasible"

let test_compute_rules_differ () =
  (* Under the paper rule the cost axis is solved at equality and dominates;
     under the direction-aware rule it is a cap. Strategy params satisfy the
     request in both cases. *)
  let strategies = [| strategy 0 |] in
  let requests = [| request 0 1 |] in
  let paper = W.compute ~rule:`Paper_equality ~requests ~strategies () in
  let aware = W.compute ~rule:`Direction_aware ~requests ~strategies () in
  let req rule_matrix =
    match W.request_requirement rule_matrix W.Max_case ~k:1 0 with
    | Some { W.workforce; _ } -> workforce
    | None -> Alcotest.fail "expected feasible"
  in
  (* paper: max(0.4 quality, 0.6 cost-at-equality, 0.4 latency) = 0.6;
     direction-aware: max(0.4, 0.4) with cap 0.6 = 0.4. *)
  Alcotest.(check (float 1e-9)) "paper rule" 0.6 (req paper);
  Alcotest.(check (float 1e-9)) "direction aware" 0.4 (req aware)

let prop_streaming_equals_matrix =
  QCheck.Test.make ~count:200 ~name:"streaming requirement equals matrix path"
    QCheck.(triple small_int (int_range 1 6) bool)
    (fun (seed, k, sum_case) ->
      let rng = Stratrec_util.Rng.create seed in
      let strategies = Model.Workload.strategies rng ~n:40 ~kind:Model.Workload.Uniform in
      let requests = Model.Workload.requests rng ~m:4 ~k in
      let aggregation = if sum_case then W.Sum_case else W.Max_case in
      let matrix = W.compute ~rule:`Paper_equality ~requests ~strategies () in
      Array.to_list requests
      |> List.for_all (fun d ->
             let via_matrix =
               W.request_requirement matrix aggregation ~k d.Deployment.id
             in
             let via_stream =
               W.streaming_requirement ~rule:`Paper_equality aggregation ~k ~strategies d
             in
             match (via_matrix, via_stream) with
             | None, None -> true
             | Some a, Some b ->
                 Float.equal a.W.workforce b.W.workforce && a.W.chosen = b.W.chosen
             | _ -> false))

(* --- the scan against the code it replaced --- *)

(* The list-fold inversions, the matrix row and the k-smallest
   aggregation the allocation-free scan replaced, kept as its oracle (the
   selection itself is the test-local [Kselect_ref]). *)
module Reference = struct
  type axis_constraint = Lower_bound of float | Upper_bound of float | Always | Never

  let solve c ~target =
    if c.LM.alpha = 0. then if c.LM.beta = target then Some 0. else None
    else Some ((target -. c.LM.beta) /. c.LM.alpha)

  let axis_constraint t axis ~target =
    let c = LM.coeffs t axis in
    let needs_at_least =
      match axis with Params.Quality -> true | Params.Cost | Params.Latency -> false
    in
    if c.LM.alpha = 0. then begin
      let met = if needs_at_least then c.LM.beta >= target else c.LM.beta <= target in
      if met then Always else Never
    end
    else begin
      let w = (target -. c.LM.beta) /. c.LM.alpha in
      let lower = if needs_at_least then c.LM.alpha > 0. else c.LM.alpha < 0. in
      if lower then Lower_bound w else Upper_bound w
    end

  let workforce_requirement t ~request =
    let fold (lower, upper) axis =
      match axis_constraint t axis ~target:(Params.get request axis) with
      | Always -> Some (lower, upper)
      | Never -> None
      | Lower_bound w -> Some (Float.max lower w, upper)
      | Upper_bound w -> Some (lower, Float.min upper w)
    in
    let rec go acc = function
      | [] -> Some acc
      | axis :: rest -> ( match fold acc axis with None -> None | Some acc -> go acc rest)
    in
    match go (0., 1.) Params.all_axes with
    | None -> None
    | Some (lower, upper) ->
        if lower <= upper +. 1e-9 then Some (Float.min lower upper) else None

  let workforce_requirement_paper t ~request =
    let rec max_requirement acc = function
      | [] -> Some acc
      | axis :: rest -> (
          match solve (LM.coeffs t axis) ~target:(Params.get request axis) with
          | None -> None
          | Some w ->
              let w = Float.max 0. w in
              if w > 1. then None else max_requirement (Float.max acc w) rest)
    in
    max_requirement 0. Params.all_axes

  let invert = function
    | `Direction_aware -> workforce_requirement
    | `Paper_equality -> workforce_requirement_paper

  let row ~rule ~strategies d =
    Array.map
      (fun s ->
        if Deployment.satisfied_by d s then
          match invert rule s.Strategy.model ~request:d.Deployment.params with
          | Some w -> W.Feasible w
          | None -> W.Infeasible
        else W.Infeasible)
      strategies

  let cmp_weighted (w, i) (w', j) =
    let c = Float.compare w w' in
    if c <> 0 then c else Int.compare i j

  let request_requirement row aggregation ~k =
    let feasible =
      Array.to_seq row
      |> Seq.mapi (fun j cell -> (j, cell))
      |> Seq.filter_map (function j, W.Feasible w -> Some (w, j) | _, W.Infeasible -> None)
      |> Array.of_seq
    in
    if Array.length feasible < k then None
    else begin
      let smallest = Kselect_ref.k_smallest ~cmp:cmp_weighted k feasible in
      let chosen = List.map snd smallest in
      let workforce =
        match aggregation with
        | W.Sum_case -> List.fold_left (fun acc (w, _) -> acc +. w) 0. smallest
        | W.Max_case -> fst (List.hd (List.rev smallest))
      in
      Some { W.workforce; chosen }
    end
end

(* Coefficients of every shape the inversion distinguishes: constant
   (alpha = 0. or -0.), negative and positive slopes, and slopes so small
   that (t - beta) /. alpha overflows to an infinity. *)
let coeffs rng =
  match Rng.int rng 8 with
  | 0 -> { LM.alpha = 0.; beta = Rng.uniform rng ~lo:0. ~hi:1. }
  | 1 -> { LM.alpha = -.Rng.uniform rng ~lo:0.05 ~hi:1.; beta = Rng.uniform rng ~lo:0. ~hi:1. }
  | 2 -> { LM.alpha = -0.; beta = Rng.uniform rng ~lo:0. ~hi:1. }
  | 3 ->
      let alpha = Rng.uniform rng ~lo:1e-310 ~hi:1e-308 in
      {
        LM.alpha = (if Rng.int rng 2 = 0 then alpha else -.alpha);
        beta = Rng.uniform rng ~lo:0. ~hi:1.;
      }
  | _ ->
      let alpha = Rng.uniform rng ~lo:0.05 ~hi:1. in
      { LM.alpha; beta = Rng.uniform rng ~lo:(-0.2) ~hi:(1. -. alpha) }

(* A catalog in which about a quarter of the strategies duplicate an
   earlier one: equal requirements, so the lower index must win. *)
let catalog rng n =
  let strategies = Array.make n (strategy 0) in
  for id = 0 to n - 1 do
    strategies.(id) <-
      (if id > 0 && Rng.int rng 4 = 0 then
         let twin = strategies.(Rng.int rng id) in
         Strategy.single ~id combo ~params:twin.Strategy.params ~model:twin.Strategy.model
       else
         Strategy.single ~id combo
           ~params:
             (Params.make
                ~quality:(Rng.uniform rng ~lo:0.4 ~hi:1.)
                ~cost:(Rng.uniform rng ~lo:0. ~hi:0.6)
                ~latency:(Rng.uniform rng ~lo:0. ~hi:0.6))
           ~model:{ LM.quality = coeffs rng; cost = coeffs rng; latency = coeffs rng })
  done;
  strategies

(* Thresholds: lenient (most strategies qualify), arbitrary, equal to a
   strategy's intercepts (a constant axis then meets its threshold
   exactly), or placing one strategy's cost cap within a few 1e-9 of its
   quality and latency requirement, the inversion's equality tolerance. *)
let thresholds rng strategies =
  let n = Array.length strategies in
  let u lo hi = Rng.uniform rng ~lo ~hi in
  match if n = 0 then 0 else Rng.int rng 4 with
  | 0 -> Params.make_unchecked ~quality:(u 0. 0.4) ~cost:(u 0.6 1.) ~latency:(u 0.6 1.)
  | 1 -> Params.make_unchecked ~quality:(u 0. 1.) ~cost:(u 0. 1.) ~latency:(u 0. 1.)
  | 2 ->
      let m = strategies.(Rng.int rng n).Strategy.model in
      Params.make_unchecked ~quality:m.LM.quality.LM.beta ~cost:m.LM.cost.LM.beta
        ~latency:m.LM.latency.LM.beta
  | _ ->
      let m = strategies.(Rng.int rng n).Strategy.model in
      let w = u 0.05 0.95 in
      let delta = [| -2e-9; -1e-9; -5e-10; 0.; 5e-10; 1e-9; 2e-9 |].(Rng.int rng 7) in
      Params.make_unchecked
        ~quality:(LM.response m.LM.quality w)
        ~cost:(LM.response m.LM.cost (w +. delta))
        ~latency:(LM.response m.LM.latency w)

(* Lenient thresholds and a copy of the catalog in which about half the
   strategies meet them at zero workforce (every floor at most 0., every
   cap at least 0.) and about a quarter have one axis capped at delta,
   within 2e-9 of 0. or exactly at 0. (a quality cap is then -0.): once
   k zero pairs fill the heap, only a negative requirement may enter it.
   Every strategy's parameters satisfy these thresholds. *)
let zero_root rng strategies =
  let u lo hi = Rng.uniform rng ~lo ~hi in
  let r = Params.make_unchecked ~quality:(u 0. 0.4) ~cost:(u 0.6 1.) ~latency:(u 0.6 1.) in
  (* Quality's floor and cap are at most 0. once beta >= t, cost's and
     latency's once beta <= t, whatever the slope. *)
  let free () =
    {
      LM.quality = { (coeffs rng) with LM.beta = u r.Params.quality 1. };
      cost = { (coeffs rng) with LM.beta = u 0. r.Params.cost };
      latency = { (coeffs rng) with LM.beta = u 0. r.Params.latency };
    }
  in
  let capped () =
    let m = free () in
    let delta = [| -2e-9; -1e-9; -5e-10; -1e-10; 0.; 1e-10 |].(Rng.int rng 6) in
    let alpha = u 0.05 1. in
    (* A cap at delta: beta = t - alpha *. delta, so t - beta has the
       sign of -delta, opposite to alpha's on a capping axis. *)
    match Rng.int rng 3 with
    | 0 ->
        let alpha = -.alpha in
        { m with LM.quality = { LM.alpha; beta = r.Params.quality -. (alpha *. delta) } }
    | 1 -> { m with LM.cost = { LM.alpha; beta = r.Params.cost -. (alpha *. delta) } }
    | _ -> { m with LM.latency = { LM.alpha; beta = r.Params.latency -. (alpha *. delta) } }
  in
  let strategies =
    Array.map
      (fun s ->
        match Rng.int rng 4 with
        | 0 | 1 -> { s with Strategy.model = free () }
        | 2 -> { s with Strategy.model = capped () }
        | _ -> s)
      strategies
  in
  (strategies, r)

(* Float.equal, and the same sign: Float.equal alone takes -0. for 0. *)
let same_float a b = Float.equal a b && Float.sign_bit a = Float.sign_bit b

let same_requirement a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> same_float a.W.workforce b.W.workforce && a.W.chosen = b.W.chosen
  | Some _, None | None, Some _ -> false

let same_inversion a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> same_float a b
  | Some _, None | None, Some _ -> false

let same_cell a b =
  match (a, b) with
  | W.Infeasible, W.Infeasible -> true
  | W.Feasible a, W.Feasible b -> same_float a b
  | W.Feasible _, W.Infeasible | W.Infeasible, W.Feasible _ -> false

(* k in 1-6, or k = n and k = n + 1 (an answer of None, early). Each
   case checks four threshold draws on the catalog and one zero-root
   draw. *)
let prop_scan_equals_reference =
  QCheck.Test.make ~count:300 ~name:"scan equals the matrix + Kselect reference"
    QCheck.(quad small_nat (int_range 0 300) (int_range 1 8) (pair bool bool))
    (fun (seed, n, kk, (paper, sum_case)) ->
      let rng = Rng.create seed in
      let strategies = catalog rng n in
      let k = if kk <= 6 then kk else max 1 (n + kk - 7) in
      let rule = if paper then `Paper_equality else `Direction_aware in
      let aggregation = if sum_case then W.Sum_case else W.Max_case in
      let agrees ~id strategies request =
        let d = Deployment.make ~id ~params:request ~k () in
        let inversions_agree =
          Array.for_all
            (fun s ->
              let m = s.Strategy.model in
              same_inversion
                (W.workforce_requirement m ~request)
                (Reference.workforce_requirement m ~request)
              && same_inversion
                   (W.workforce_requirement_paper m ~request)
                   (Reference.workforce_requirement_paper m ~request))
            strategies
        in
        let row = Reference.row ~rule ~strategies d in
        let expected = Reference.request_requirement row aggregation ~k in
        let matrix = W.compute ~rule ~requests:[| d |] ~strategies () in
        inversions_agree
        && Array.for_all2 same_cell matrix.W.cells.(0) row
        && same_requirement (W.request_requirement matrix aggregation ~k 0) expected
        && same_requirement (W.streaming_requirement ~rule aggregation ~k ~strategies d) expected
      in
      List.for_all (fun id -> agrees ~id strategies (thresholds rng strategies)) [ 0; 1; 2; 3 ]
      &&
      let strategies, request = zero_root rng strategies in
      agrees ~id:4 strategies request)

(* k comes straight from a request: one far above the catalog size must
   be answered None before anything is sized by it. *)
let test_unbounded_k () =
  let strategies =
    Model.Workload.strategies (Rng.create 2020) ~n:1000 ~kind:Model.Workload.Uniform
  in
  let k = 1_000_000_000 in
  let d =
    Deployment.make ~id:0 ~params:(Params.make ~quality:0.1 ~cost:0.95 ~latency:0.95) ~k ()
  in
  let matrix = W.compute ~requests:[| d |] ~strategies () in
  let check name f =
    let words = Gc.minor_words () and bytes = Gc.allocated_bytes () in
    let result = f () in
    let words = Gc.minor_words () -. words and bytes = Gc.allocated_bytes () -. bytes in
    Alcotest.(check bool) (name ^ " is None") true (result = None);
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f minor words" name words) true (words < 64.);
    (* Gc.allocated_bytes also counts direct major-heap allocations,
       where a huge array would go. *)
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f bytes" name bytes) true (bytes < 4096.)
  in
  check "streaming" (fun () -> W.streaming_requirement W.Max_case ~k ~strategies d);
  check "row" (fun () -> W.request_requirement matrix W.Sum_case ~k 0)

(* No strategy costs the scan a call or a float box, so a call
   allocates its k-slot heap and its answer, whatever |S|. Two
   requests on the same catalog: a lenient one, which k strategies meet
   at zero workforce, so the prune skips most of the rest, and one for
   which every qualifying strategy needs workforce, so each of them is
   inverted. *)
let test_scan_allocates_nothing_per_strategy () =
  let strategies =
    Model.Workload.strategies (Rng.create 2020) ~n:1000 ~kind:Model.Workload.Uniform
  in
  List.iter
    (fun (request, quality) ->
      let d =
        Deployment.make ~id:0 ~params:(Params.make ~quality ~cost:0.95 ~latency:0.95) ~k:2 ()
      in
      List.iter
        (fun (rule_name, rule) ->
          let name = request ^ ", " ^ rule_name in
          let scan () = W.streaming_requirement ~rule W.Max_case ~k:2 ~strategies d in
          let words = Gc.minor_words () in
          let result = scan () in
          let words = Gc.minor_words () -. words in
          Alcotest.(check bool) (name ^ " is met") true (result <> None);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.0f minor words" name words)
            true (words < 64.))
        [ ("direction-aware", `Direction_aware); ("paper", `Paper_equality) ])
    [ ("lenient", 0.1); ("demanding", 0.7) ]

let () =
  Alcotest.run "workforce"
    [
      ( "workforce",
        [
          Alcotest.test_case "sum and max aggregation" `Quick test_aggregation_sum_and_max;
          Alcotest.test_case "insufficient candidates" `Quick test_insufficient_candidates;
          Alcotest.test_case "k validation" `Quick test_k_validation;
          Alcotest.test_case "sum starts at 0." `Quick test_sum_starts_at_zero;
          Alcotest.test_case "a negative requirement displaces a zero root" `Quick
            test_negative_displaces_zero_root;
          Alcotest.test_case "vector" `Quick test_vector;
          Alcotest.test_case "compute respects satisfaction" `Quick
            test_compute_respects_satisfaction;
          Alcotest.test_case "inversion rules differ" `Quick test_compute_rules_differ;
          Tq.to_alcotest prop_streaming_equals_matrix;
          Tq.to_alcotest prop_scan_equals_reference;
          Alcotest.test_case "unbounded k" `Quick test_unbounded_k;
          Alcotest.test_case "scan allocates nothing per strategy" `Quick
            test_scan_allocates_nothing_per_strategy;
        ] );
    ]
