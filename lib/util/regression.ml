type fit = {
  slope : float;
  intercept : float;
  r_squared : float;
  residual_std : float;
  slope_std_error : float;
  intercept_std_error : float;
  n : int;
}

let fit ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Regression.fit: length mismatch";
  if n < 2 then invalid_arg "Regression.fit: need at least 2 points";
  let nf = float_of_int n in
  let mean_x = Stats.mean xs and mean_y = Stats.mean ys in
  let sxx = ref 0. and sxy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mean_x in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. (ys.(i) -. mean_y))
  done;
  if !sxx = 0. then invalid_arg "Regression.fit: xs are constant";
  let slope = !sxy /. !sxx in
  let intercept = mean_y -. (slope *. mean_x) in
  let sse = ref 0. and sst = ref 0. in
  for i = 0 to n - 1 do
    let residual = ys.(i) -. ((slope *. xs.(i)) +. intercept) in
    sse := !sse +. (residual *. residual);
    let dy = ys.(i) -. mean_y in
    sst := !sst +. (dy *. dy)
  done;
  let r_squared = if !sst = 0. then 1. else 1. -. (!sse /. !sst) in
  let residual_std = if n > 2 then sqrt (!sse /. float_of_int (n - 2)) else 0. in
  let slope_std_error = if n > 2 then residual_std /. sqrt !sxx else 0. in
  let intercept_std_error =
    if n > 2 then residual_std *. sqrt ((1. /. nf) +. (mean_x *. mean_x /. !sxx)) else 0.
  in
  { slope; intercept; r_squared; residual_std; slope_std_error; intercept_std_error; n }

let interval ~level ~n center std_error =
  if n < 3 then invalid_arg "Regression: confidence interval needs n >= 3";
  let df = float_of_int (n - 2) in
  let t_crit = Stats.t_quantile ~df (1. -. ((1. -. level) /. 2.)) in
  (center -. (t_crit *. std_error), center +. (t_crit *. std_error))

let slope_confidence_interval ~level f = interval ~level ~n:f.n f.slope f.slope_std_error

let intercept_confidence_interval ~level f =
  interval ~level ~n:f.n f.intercept f.intercept_std_error

let within_confidence ~level f ~slope ~intercept =
  let slo, shi = slope_confidence_interval ~level f in
  let ilo, ihi = intercept_confidence_interval ~level f in
  slope >= slo && slope <= shi && intercept >= ilo && intercept <= ihi

let pp_fit ppf f =
  Format.fprintf ppf "y = %.4f x + %.4f (R^2=%.4f, n=%d, se_a=%.4f, se_b=%.4f)" f.slope
    f.intercept f.r_squared f.n f.slope_std_error f.intercept_std_error
