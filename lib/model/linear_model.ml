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
