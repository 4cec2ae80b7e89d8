module Distribution = Stratrec_util.Distribution

type t = { pdf : Distribution.Discrete.t }

let of_pdf pdf =
  List.iter
    (fun (v, _) ->
      if v < 0. || v > 1. then
        invalid_arg (Printf.sprintf "Availability.of_pdf: proportion %g outside [0,1]" v))
    (Distribution.Discrete.outcomes pdf);
  { pdf }

let of_outcomes outcomes = of_pdf (Distribution.Discrete.create outcomes)

let certain v =
  if not (v >= 0. && v <= 1.) then invalid_arg "Availability.certain: value outside [0,1]";
  of_outcomes [ (v, 1.) ]

let expected t = Distribution.Discrete.expectation t.pdf
let pdf t = t.pdf
let sample t rng = Distribution.Discrete.sample t.pdf rng

let observed_ratio ~undertaken ~capacity =
  if capacity <= 0 then invalid_arg "Availability.observed_ratio: capacity must be positive";
  if undertaken < 0 then invalid_arg "Availability.observed_ratio: negative undertaken";
  Float.min 1. (float_of_int undertaken /. float_of_int capacity)

let pp ppf t =
  Format.fprintf ppf "availability %a (E=%.3f)" Distribution.Discrete.pp t.pdf (expected t)
