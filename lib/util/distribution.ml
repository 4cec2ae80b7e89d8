type t =
  | Uniform of { lo : float; hi : float }
  | Normal of { mu : float; sigma : float }
  | Truncated_normal of { mu : float; sigma : float; lo : float; hi : float }
  | Exponential of { rate : float }
  | Constant of float

let erf x =
  (* Abramowitz & Stegun 7.1.26. *)
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let y =
    1.
    -. (((((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t) -. 0.284496736)
          *. t)
         +. 0.254829592)
        *. t
        *. exp (-.x *. x))
  in
  sign *. y

let normal_cdf ~mu ~sigma x = 0.5 *. (1. +. erf ((x -. mu) /. (sigma *. sqrt 2.)))
let normal_pdf_standard z = exp (-0.5 *. z *. z) /. sqrt (2. *. Float.pi)

let rec sample t rng =
  match t with
  | Uniform { lo; hi } -> Rng.uniform rng ~lo ~hi
  | Normal { mu; sigma } -> Rng.gaussian rng ~mu ~sigma
  | Truncated_normal { mu; sigma; lo; hi } ->
      (* Rejection sampling; acceptable because experiment bounds keep the
         acceptance region wide. *)
      let x = Rng.gaussian rng ~mu ~sigma in
      if x >= lo && x <= hi then x else sample t rng
  | Exponential { rate } -> Rng.exponential rng ~rate
  | Constant v -> v

let mean = function
  | Uniform { lo; hi } -> (lo +. hi) /. 2.
  | Normal { mu; _ } -> mu
  | Truncated_normal { mu; sigma; lo; hi } ->
      let alpha = (lo -. mu) /. sigma and beta = (hi -. mu) /. sigma in
      let z = normal_cdf ~mu:0. ~sigma:1. beta -. normal_cdf ~mu:0. ~sigma:1. alpha in
      mu +. (sigma *. (normal_pdf_standard alpha -. normal_pdf_standard beta) /. z)
  | Exponential { rate } -> 1. /. rate
  | Constant v -> v

let pp ppf = function
  | Uniform { lo; hi } -> Format.fprintf ppf "U[%g,%g]" lo hi
  | Normal { mu; sigma } -> Format.fprintf ppf "N(%g,%g)" mu sigma
  | Truncated_normal { mu; sigma; lo; hi } ->
      Format.fprintf ppf "N(%g,%g)|[%g,%g]" mu sigma lo hi
  | Exponential { rate } -> Format.fprintf ppf "Exp(%g)" rate
  | Constant v -> Format.fprintf ppf "Const(%g)" v

module Discrete = struct
  type nonrec t = { outcomes : (float * float) array; cumulative : float array }

  let create pairs =
    if pairs = [] then invalid_arg "Distribution.Discrete.create: empty outcome list";
    List.iter
      (fun (_, p) ->
        if p < 0. then invalid_arg "Distribution.Discrete.create: negative probability")
      pairs;
    let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. pairs in
    if total <= 0. then invalid_arg "Distribution.Discrete.create: zero total weight";
    let outcomes = Array.of_list (List.map (fun (v, p) -> (v, p /. total)) pairs) in
    let cumulative = Array.make (Array.length outcomes) 0. in
    let acc = ref 0. in
    Array.iteri
      (fun i (_, p) ->
        acc := !acc +. p;
        cumulative.(i) <- !acc)
      outcomes;
    { outcomes; cumulative }

  let expectation t = Array.fold_left (fun acc (v, p) -> acc +. (v *. p)) 0. t.outcomes
  let outcomes t = Array.to_list t.outcomes

  let sample t rng =
    let u = Rng.float rng 1. in
    let n = Array.length t.outcomes in
    let rec find i = if i >= n - 1 || u < t.cumulative.(i) then fst t.outcomes.(i) else find (i + 1) in
    find 0

  let pp ppf t =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf (v, p) -> Format.fprintf ppf "%.3g@%.2g" v p))
      (outcomes t)
end
