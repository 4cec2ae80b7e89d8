(** Probability distributions for synthetic workloads and worker
    availability.

    The paper models worker availability as a discrete probability
    distribution over proportions of available workers and works with its
    expectation (§2.1). Synthetic strategies are generated from uniform and
    normal distributions (§5.2.2). *)

(** Continuous (or degenerate) distribution over floats. *)
type t =
  | Uniform of { lo : float; hi : float }
  | Normal of { mu : float; sigma : float }
  | Truncated_normal of { mu : float; sigma : float; lo : float; hi : float }
  | Exponential of { rate : float }
  | Constant of float

val sample : t -> Rng.t -> float
val mean : t -> float
(** Analytical mean where available; for truncated normals a high-accuracy
    closed form using the error function. *)

val pp : Format.formatter -> t -> unit

val erf : float -> float
(** Error function (Abramowitz–Stegun 7.1.26, |error| <= 1.5e-7). *)

(** Discrete probability distribution over float outcomes, the paper's
    representation of worker availability: e.g. 70% chance of 7% of workers
    and 30% chance of 2% gives expectation 5.5%. *)
module Discrete : sig
  type t

  val create : (float * float) list -> t
  (** [create outcomes] from [(value, probability)] pairs. Probabilities
      must be non-negative and are normalized to sum to 1.
      @raise Invalid_argument on an empty list or all-zero weights. *)

  val expectation : t -> float
  val outcomes : t -> (float * float) list
  (** Normalized [(value, probability)] pairs. *)

  val sample : t -> Rng.t -> float
  val pp : Format.formatter -> t -> unit
end
