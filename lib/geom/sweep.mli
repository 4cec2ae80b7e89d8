(** Discrete sweep-line support.

    ADPaR-Exact (§4.1, Tables 2–5) sorts per-parameter relaxation values
    into a list [R] with companion structures [I] (strategy index) and [D]
    (parameter tag). This module is that structure: an immutable,
    key-sorted event sequence, indexed by position. *)

type 'a t

val of_events : (float * 'a) list -> 'a t
(** Sorts by key ascending (stable, so insertion order breaks ties). *)

val length : 'a t -> int
val key : 'a t -> int -> float
(** [key t i] for [i] in [0, length). @raise Invalid_argument otherwise. *)

val payload : 'a t -> int -> 'a
