(** Axis-parallel boxes (hyper-rectangles) in 3-D.

    A deployment request corresponds to the box [\[0, d.quality'\] x
    \[0, d.cost\] x \[0, d.latency\]] (§4.1); a strategy is satisfied by the
    request iff its point lies inside that box. Boxes are also the bounding
    volumes of the R-tree. *)

type t = { lo : Point3.t; hi : Point3.t }

val make : lo:Point3.t -> hi:Point3.t -> t
(** @raise Invalid_argument unless [lo <= hi] componentwise. *)

val of_point : Point3.t -> t
(** Degenerate box. *)

val anchored : Point3.t -> t
(** [anchored p] is the box from the origin to [p] — the satisfaction region
    of a normalized deployment request. *)

val contains_point : t -> Point3.t -> bool
(** Closed-box membership. *)

val intersects : t -> t -> bool

val union : t -> t -> t
(** Minimum bounding box of the two. *)

val union_point : t -> Point3.t -> t

val volume : t -> float

val enlargement : t -> t -> float
(** [enlargement box extra] is [volume (union box extra) - volume box]. *)

val top_right : t -> Point3.t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
