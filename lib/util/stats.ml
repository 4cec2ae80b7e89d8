let require_nonempty name xs = if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  require_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    ss /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let std_error xs =
  require_nonempty "Stats.std_error" xs;
  stddev xs /. sqrt (float_of_int (Array.length xs))

let min_max xs =
  require_nonempty "Stats.min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let quantile xs q =
  require_nonempty "Stats.quantile" xs;
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  std_error : float;
  min : float;
  max : float;
}

let summarize xs =
  require_nonempty "Stats.summarize" xs;
  let min, max = min_max xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    std_error = std_error xs;
    min;
    max;
  }

(* Lanczos approximation (g = 7, n = 9). *)
let lanczos_coefficients =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula to reach the stable region. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. (((x +. 0.5) *. log t) -. t) +. log !acc
  end

(* Continued fraction for the incomplete beta function (Numerical Recipes
   style modified Lentz algorithm). *)
let beta_cf ~a ~b ~x =
  let max_iterations = 300 in
  let epsilon = 3e-14 in
  let fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if Float.abs !d < fpmin then d := fpmin;
  d := 1. /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue = ref true in
  while !continue && !m <= max_iterations do
    let mf = float_of_int !m in
    let m2 = 2. *. mf in
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1. +. (aa *. !d);
    if Float.abs !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    h := !h *. !d *. !c;
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1. +. (aa *. !d);
    if Float.abs !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.) < epsilon then continue := false;
    incr m
  done;
  !h

let incomplete_beta ~a ~b ~x =
  if x < 0. || x > 1. then invalid_arg "Stats.incomplete_beta: x outside [0,1]";
  if x = 0. then 0.
  else if x = 1. then 1.
  else begin
    let log_front =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x) +. (b *. log (1. -. x))
    in
    let front = exp log_front in
    (* Use the continued fraction in its fast-converging half. *)
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. beta_cf ~a ~b ~x /. a
    else 1. -. (front *. beta_cf ~a:b ~b:a ~x:(1. -. x) /. b)
  end

let t_cdf ~df t =
  if df <= 0. then invalid_arg "Stats.t_cdf: df must be positive";
  if Float.is_nan t then nan
  else begin
    let x = df /. (df +. (t *. t)) in
    let p = 0.5 *. incomplete_beta ~a:(df /. 2.) ~b:0.5 ~x in
    if t >= 0. then 1. -. p else p
  end

let t_quantile ~df p =
  if p <= 0. || p >= 1. then invalid_arg "Stats.t_quantile: p outside (0,1)";
  (* Bisection: the CDF is monotone; 1e6 bounds cover any practical case. *)
  let lo = ref (-1e6) and hi = ref 1e6 in
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if t_cdf ~df mid < p then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

type t_test_result = {
  t_statistic : float;
  degrees_of_freedom : float;
  p_value : float;
  significant_at_5pct : bool;
}

let welch_t_test xs ys =
  if Array.length xs < 2 || Array.length ys < 2 then
    invalid_arg "Stats.welch_t_test: need at least 2 samples per group";
  let nx = float_of_int (Array.length xs) and ny = float_of_int (Array.length ys) in
  let vx = variance xs /. nx and vy = variance ys /. ny in
  let se = sqrt (vx +. vy) in
  let shift = mean xs -. mean ys in
  let t =
    (* Zero variance with a real shift is unambiguous evidence. *)
    if se = 0. then
      if shift = 0. then 0. else Float.of_int (Float.compare shift 0.) *. infinity
    else shift /. se
  in
  let df =
    if vx +. vy = 0. then nx +. ny -. 2.
    else ((vx +. vy) ** 2.) /. ((vx ** 2. /. (nx -. 1.)) +. (vy ** 2. /. (ny -. 1.)))
  in
  let p = 2. *. (1. -. t_cdf ~df (Float.abs t)) in
  { t_statistic = t; degrees_of_freedom = df; p_value = p; significant_at_5pct = p < 0.05 }

let paired_t_test xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.paired_t_test: length mismatch";
  if n < 2 then invalid_arg "Stats.paired_t_test: need at least 2 pairs";
  let differences = Array.init n (fun i -> xs.(i) -. ys.(i)) in
  let m = mean differences and se = std_error differences in
  let df = float_of_int (n - 1) in
  let t =
    if se = 0. then if m = 0. then 0. else Float.of_int (Float.compare m 0.) *. infinity
    else m /. se
  in
  let p = 2. *. (1. -. t_cdf ~df (Float.abs t)) in
  { t_statistic = t; degrees_of_freedom = df; p_value = p; significant_at_5pct = p < 0.05 }
