type t = { lo : Point3.t; hi : Point3.t }

let make ~lo ~hi =
  if not (Point3.weakly_dominates lo hi) then invalid_arg "Box3.make: lo must dominate hi";
  { lo; hi }

let of_point p = { lo = p; hi = p }
let anchored p = make ~lo:Point3.zero ~hi:p

let contains_point t p = Point3.weakly_dominates t.lo p && Point3.weakly_dominates p t.hi
let intersects a b =
  a.lo.Point3.x <= b.hi.Point3.x
  && b.lo.Point3.x <= a.hi.Point3.x
  && a.lo.Point3.y <= b.hi.Point3.y
  && b.lo.Point3.y <= a.hi.Point3.y
  && a.lo.Point3.z <= b.hi.Point3.z
  && b.lo.Point3.z <= a.hi.Point3.z

let union a b =
  { lo = Point3.componentwise_min a.lo b.lo; hi = Point3.componentwise_max a.hi b.hi }

let union_point t p = union t (of_point p)

let volume t =
  (t.hi.Point3.x -. t.lo.Point3.x)
  *. (t.hi.Point3.y -. t.lo.Point3.y)
  *. (t.hi.Point3.z -. t.lo.Point3.z)

let enlargement t extra = volume (union t extra) -. volume t
let top_right t = t.hi
let equal a b = Point3.equal a.lo b.lo && Point3.equal a.hi b.hi
let pp ppf t = Format.fprintf ppf "[%a .. %a]" Point3.pp t.lo Point3.pp t.hi
