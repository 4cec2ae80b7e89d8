type coeffs = { alpha : float; beta : float }
type t = { quality : coeffs; cost : coeffs; latency : coeffs }

let coeffs t = function
  | Params.Quality -> t.quality
  | Params.Cost -> t.cost
  | Params.Latency -> t.latency

let response c w = (c.alpha *. w) +. c.beta

let clamp01 v = Float.max 0. (Float.min 1. v)

let estimate t ~availability =
  Params.make_unchecked
    ~quality:(clamp01 (response t.quality availability))
    ~cost:(clamp01 (response t.cost availability))
    ~latency:(clamp01 (response t.latency availability))

(* A constant model (alpha = 0) meets its threshold outright or never. *)
let[@inline] constant_meets c ~target ~at_least =
  if at_least then c.beta >= target else c.beta <= target

(* With alpha <> 0: response >= target with alpha > 0, or response <=
   target with alpha < 0, both demand more workforce; the other two cases
   cap it. *)
let[@inline] bounds_below c ~at_least = if at_least then c.alpha > 0. else c.alpha < 0.

(* The inversions below are straight-line float code: the workforce scan
   calls them once per catalog cell, and in this form a call allocates
   nothing but the box of its result. [infinity] stands for infeasible;
   no feasible requirement exceeds 1. *)

(* A constant model that misses its threshold: no workforce helps. *)
let[@inline] never c ~target ~at_least =
  c.alpha = 0. && not (constant_meets c ~target ~at_least)

(* The running floor (lower bound on workforce), raised when the axis
   demands more workforce than it. *)
let[@inline] raise_floor c ~target ~at_least floor =
  if c.alpha <> 0. && bounds_below c ~at_least then
    Float.max floor ((target -. c.beta) /. c.alpha)
  else floor

(* The running cap (upper bound on workforce), lowered when the axis
   allows less workforce than it. *)
let[@inline] lower_cap c ~target ~at_least cap =
  if c.alpha = 0. || bounds_below c ~at_least then cap
  else Float.min cap ((target -. c.beta) /. c.alpha)

let min_workforce t ~(request : Params.t) =
  if
    never t.quality ~target:request.quality ~at_least:true
    || never t.cost ~target:request.cost ~at_least:false
    || never t.latency ~target:request.latency ~at_least:false
  then infinity
  else
    let lower =
      raise_floor t.latency ~target:request.latency ~at_least:false
        (raise_floor t.cost ~target:request.cost ~at_least:false
           (raise_floor t.quality ~target:request.quality ~at_least:true 0.))
    and upper =
      lower_cap t.latency ~target:request.latency ~at_least:false
        (lower_cap t.cost ~target:request.cost ~at_least:false
           (lower_cap t.quality ~target:request.quality ~at_least:true 1.))
    in
    (* Equality boundaries (a cap meeting a lower bound) are legitimate
       and common in calibrated models; tolerate float drift there. *)
    if lower <= upper +. 1e-9 then Float.min lower upper else infinity

(* One axis of the paper rule: its solution at equality, or [infinity]
   when it has none or it exceeds 1. *)
let[@inline] paper_bound c ~target =
  if c.alpha = 0. then if c.beta = target then 0. else infinity
  else
    let w = (target -. c.beta) /. c.alpha in
    if w > 1. then infinity else w

let min_workforce_paper t ~(request : Params.t) =
  let q = paper_bound t.quality ~target:request.quality in
  if q = infinity then infinity
  else
    let c = paper_bound t.cost ~target:request.cost in
    if c = infinity then infinity
    else
      let l = paper_bound t.latency ~target:request.latency in
      (* Starting the max at 0. clamps negative solutions to 0. *)
      if l = infinity then infinity else Float.max (Float.max (Float.max 0. q) c) l

let feasible w = if w = infinity then None else Some w
let workforce_requirement t ~request = feasible (min_workforce t ~request)
let workforce_requirement_paper t ~request = feasible (min_workforce_paper t ~request)

let fit_detailed ~observations =
  let xs = Array.map fst observations in
  let axis_fit axis =
    let ys = Array.map (fun (_, p) -> Params.get p axis) observations in
    (axis, Stratrec_util.Regression.fit ~xs ~ys)
  in
  let fits = List.map axis_fit Params.all_axes in
  let coeffs_of axis =
    let fit = List.assoc axis fits in
    { alpha = fit.Stratrec_util.Regression.slope; beta = fit.Stratrec_util.Regression.intercept }
  in
  ( {
      quality = coeffs_of Params.Quality;
      cost = coeffs_of Params.Cost;
      latency = coeffs_of Params.Latency;
    },
    fits )

let fit ~observations = fst (fit_detailed ~observations)

let synthetic rng =
  let axis () =
    let alpha = Stratrec_util.Rng.uniform rng ~lo:0.5 ~hi:1. in
    { alpha; beta = 1. -. alpha }
  in
  { quality = axis (); cost = axis (); latency = axis () }

let pp_coeffs ppf c = Format.fprintf ppf "%.3f w %+.3f" c.alpha c.beta

let pp ppf t =
  Format.fprintf ppf "{q: %a; c: %a; l: %a}" pp_coeffs t.quality pp_coeffs t.cost pp_coeffs
    t.latency
