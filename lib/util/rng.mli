(** Deterministic pseudo-random number generation.

    All randomness in the library flows through an explicit [Rng.t] so that
    every experiment is reproducible from a seed. The generator is a
    splitmix64-seeded xoshiro256**, which is fast and has good statistical
    quality for simulation workloads. *)

type t

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]. Two
    generators created from the same seed produce identical streams. *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [true] with probability [p] (clamped to [0,1]). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box–Muller. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with given rate. Requires [rate > 0.]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
