(** Selection of the k smallest elements.

    The paper's workforce aggregation (§3.2) retrieves the [k] smallest
    workforce values of each matrix row with min-heaps; this module provides
    that primitive and its incremental form, generic over the element type.
    The hot paths keep their own flat float heaps, which box nothing per
    element ([Stratrec_model.Workforce]'s requirement scan, ADPaR's
    sweep); this module is the reference their QCheck oracles compare
    against. *)

val k_smallest : cmp:('a -> 'a -> int) -> int -> 'a array -> 'a list
(** [k_smallest ~cmp k arr] is the [k] smallest elements of [arr] in
    ascending order (all elements if [k >= length]). O(n log k) using a
    bounded max-heap. Requires [k >= 0]. *)

val kth_smallest : cmp:('a -> 'a -> int) -> int -> 'a array -> 'a option
(** [kth_smallest ~cmp k arr] is the k-th smallest element (1-based), or
    [None] if [k < 1] or [k > length arr]. *)

val k_smallest_indices : cmp:('a -> 'a -> int) -> int -> 'a array -> int list
(** Indices (into the original array) of the [k] smallest elements, in
    ascending element order. Ties broken by index. *)

(** Incremental k-smallest tracker: feed elements one by one and query the
    current k-th smallest in O(log k). The record-based ADPaR sweep kept
    in [test/test_adpar.ml] as an oracle runs on it. *)
module Tracker : sig
  type 'a t

  val create : cmp:('a -> 'a -> int) -> int -> 'a t
  (** [create ~cmp k]. Requires [k >= 1]. *)

  val add : 'a t -> 'a -> unit

  val count : 'a t -> int
  (** Number of elements fed so far. *)

  val kth : 'a t -> 'a option
  (** Current k-th smallest, or [None] while fewer than [k] elements have
      been fed. *)

  val contents : 'a t -> 'a list
  (** The current k (or fewer) smallest elements, ascending. Does not
      modify the tracker. *)
end
