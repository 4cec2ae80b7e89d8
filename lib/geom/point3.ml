type t = { x : float; y : float; z : float }

let make x y z = { x; y; z }
let zero = { x = 0.; y = 0.; z = 0. }
let ones = { x = 1.; y = 1.; z = 1. }

let coord p = function
  | 0 -> p.x
  | 1 -> p.y
  | 2 -> p.z
  | i -> invalid_arg (Printf.sprintf "Point3.coord: axis %d" i)

let weakly_dominates a b = a.x <= b.x && a.y <= b.y && a.z <= b.z

(* Float.equal keeps [equal] consistent with [compare] below (both are
   reflexive on nan), where (=) would make a nan point unequal to itself
   while [compare] says 0. *)
let equal a b = Float.equal a.x b.x && Float.equal a.y b.y && Float.equal a.z b.z

let squared_distance a b =
  let dx = a.x -. b.x and dy = a.y -. b.y and dz = a.z -. b.z in
  (dx *. dx) +. (dy *. dy) +. (dz *. dz)

let l2_distance a b = sqrt (squared_distance a b)
let componentwise_max a b = { x = Float.max a.x b.x; y = Float.max a.y b.y; z = Float.max a.z b.z }
let componentwise_min a b = { x = Float.min a.x b.x; y = Float.min a.y b.y; z = Float.min a.z b.z }

let compare a b =
  let c = Float.compare a.x b.x in
  if c <> 0 then c
  else
    let c = Float.compare a.y b.y in
    if c <> 0 then c else Float.compare a.z b.z

let pp ppf p = Format.fprintf ppf "(%.4g, %.4g, %.4g)" p.x p.y p.z
