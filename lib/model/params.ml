type t = { quality : float; cost : float; latency : float }
type axis = Quality | Cost | Latency

let all_axes = [ Quality; Cost; Latency ]
let axis_label = function Quality -> "Quality" | Cost -> "Cost" | Latency -> "Latency"
let axis_index = function Quality -> 0 | Cost -> 1 | Latency -> 2

let in_unit v = v >= 0. && v <= 1.

let make ~quality ~cost ~latency =
  if not (in_unit quality && in_unit cost && in_unit latency) then
    invalid_arg
      (Printf.sprintf "Params.make: (%g, %g, %g) outside [0,1]" quality cost latency);
  { quality; cost; latency }

let make_unchecked ~quality ~cost ~latency = { quality; cost; latency }

let get t = function Quality -> t.quality | Cost -> t.cost | Latency -> t.latency

let set t axis v =
  match axis with
  | Quality -> { t with quality = v }
  | Cost -> { t with cost = v }
  | Latency -> { t with latency = v }

let satisfies ~strategy ~request =
  strategy.quality >= request.quality
  && strategy.cost <= request.cost
  && strategy.latency <= request.latency

let to_point t = Stratrec_geom.Point3.make (1. -. t.quality) t.cost t.latency

let of_point p =
  let open Stratrec_geom in
  make_unchecked ~quality:(1. -. p.Point3.x) ~cost:p.Point3.y ~latency:p.Point3.z

let l2_distance a b =
  let dq = a.quality -. b.quality
  and dc = a.cost -. b.cost
  and dl = a.latency -. b.latency in
  sqrt ((dq *. dq) +. (dc *. dc) +. (dl *. dl))

let relaxation ~request ~strategy axis =
  (* In the inverted space both the strategy and the request are
     smaller-is-better, so the needed relaxation is the positive part of the
     strategy coordinate minus the request coordinate. *)
  let r = to_point request and s = to_point strategy in
  let i = axis_index axis in
  Float.max 0. (Stratrec_geom.Point3.coord s i -. Stratrec_geom.Point3.coord r i)

(* Float.equal, not (=): reflexive on nan and allocation-free. [make]
   rejects nan and normalizes nothing, but [make_unchecked] values (ADPaR
   interior points) can carry -0., which Float.equal treats as equal to
   0. — the IEEE behaviour we want for coordinates. *)
let equal a b =
  Float.equal a.quality b.quality && Float.equal a.cost b.cost
  && Float.equal a.latency b.latency

(* Printf's [%.12g] without its format interpreter: the same C
   conversion, so the same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

let to_string t =
  String.concat ","
    [ format_float "%.12g" t.quality; format_float "%.12g" t.cost; format_float "%.12g" t.latency ]

let of_string s =
  match String.split_on_char ',' s |> List.map String.trim with
  | [ q; c; l ] -> (
      match (float_of_string_opt q, float_of_string_opt c, float_of_string_opt l) with
      | Some quality, Some cost, Some latency ->
          if List.for_all in_unit [ quality; cost; latency ] then
            Ok { quality; cost; latency }
          else Error "thresholds must lie in [0,1]"
      | _ -> Error "expected three floats: QUALITY,COST,LATENCY")
  | _ -> Error "expected QUALITY,COST,LATENCY"

let pp ppf t = Format.fprintf ppf "{q=%.3f; c=%.3f; l=%.3f}" t.quality t.cost t.latency
