(** Deterministic batch sharding.

    The parallel triage path shards a request batch into contiguous
    slices, computes each slice on its own domain, and places every
    result at its own index. Everything here is a pure function of the
    inputs — the slice boundaries and the result ordering never depend
    on scheduling — which is what makes the parallel path bit-identical
    to the sequential one. *)

val plan : shards:int -> length:int -> (int * int) array
(** [plan ~shards ~length] cuts [\[0, length)] into at most [shards]
    contiguous [(start, stop)] slices (half-open), in order, sizes
    differing by at most one (the remainder goes to the leading slices).
    Fewer than [shards] slices are returned when [length < shards];
    empty when [length = 0]. @raise Invalid_argument when [shards < 1]
    or [length < 0]. *)

val init : Pool.t -> int -> f:(int -> 'a) -> 'a array
(** [init pool n ~f] is [Array.init n f] evaluated in parallel:
    contiguous slices of [\[0, n)], one per pool domain, with the
    results placed at their index. [f] must be safe to call from any
    domain and must not depend on evaluation order. *)

val map : Pool.t -> f:('a -> 'b) -> 'a array -> 'b array
(** [map pool ~f arr] is [Array.map f arr] with the same contract as
    {!init}. *)
