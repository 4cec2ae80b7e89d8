(** Points in the 3-dimensional deployment-parameter space.

    After the paper's normalization (§4.1) every strategy is a point
    [(quality', cost, latency)] with quality inverted to [1 - quality] so
    that smaller is uniformly better, and a deployment request is the
    top-right corner of an axis-parallel box anchored at the origin. *)

type t = { x : float; y : float; z : float }

val make : float -> float -> float -> t
val zero : t
val ones : t

val coord : t -> int -> float
(** [coord p i] for [i] in 0..2. @raise Invalid_argument otherwise. *)

val weakly_dominates : t -> t -> bool
(** Componentwise [a <= b]. *)

val l2_distance : t -> t -> float
val squared_distance : t -> t -> float

val componentwise_max : t -> t -> t
val componentwise_min : t -> t -> t

val equal : t -> t -> bool
(** Componentwise {!Float.equal} — consistent with {!compare}
    ([equal a b] iff [compare a b = 0], nan included). *)

val compare : t -> t -> int
(** Lexicographic. *)

val pp : Format.formatter -> t -> unit
