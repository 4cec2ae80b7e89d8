(** Worker availability (§2.1).

    A discrete random variable giving the probability of each proportion of
    suitable workers being available in a deployment window; StratRec works
    with its expectation. E.g. a 70% chance of 7% of workers and a 30%
    chance of 2% yields an expected availability of 5.5%, i.e. 220 workers
    on a platform with 4000 suitable workers. *)

type t

val of_pdf : Stratrec_util.Distribution.Discrete.t -> t
(** @raise Invalid_argument if any outcome lies outside [\[0, 1\]]. *)

val certain : float -> t
(** Deterministic availability. @raise Invalid_argument outside [\[0,1\]]
    (nan included). *)

val of_outcomes : (float * float) list -> t
(** [(proportion, probability)] pairs; normalized like
    {!Stratrec_util.Distribution.Discrete.create}. *)

val expected : t -> float
(** Expected proportion of available workers, in [\[0, 1\]]. *)

val pdf : t -> Stratrec_util.Distribution.Discrete.t

val sample : t -> Stratrec_util.Rng.t -> float

val observed_ratio : undertaken:int -> capacity:int -> float
(** [x' / x] of §5.1.1: actual workers over the HIT's maximum, clamped to
    [\[0, 1\]]. @raise Invalid_argument if [capacity <= 0] or
    [undertaken < 0]. *)

val pp : Format.formatter -> t -> unit
