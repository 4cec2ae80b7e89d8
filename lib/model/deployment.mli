(** Deployment requests (§2.1).

    A requester asks for [k] strategies consistent with thresholds
    (quality lower bound, cost and latency upper bounds). The pay-off of
    satisfying a request is the cost the requester is willing to expend
    (§3.3.2). *)

type t = { id : int; label : string; params : Params.t; k : int }

val make : id:int -> ?label:string -> params:Params.t -> k:int -> unit -> t
(** Default label is ["d<id>"]. @raise Invalid_argument if [k < 1]. *)

val payoff : t -> float
(** [= params.cost]. *)

val satisfied_by : t -> Strategy.t -> bool
(** The strategy's estimated parameters meet all three thresholds. *)

val is_successful : t -> Strategy.t list -> bool
(** Whether the given recommendation set makes the request successful:
    exactly [k] distinct strategies, each satisfying the thresholds
    (Problem 1). *)

val box : t -> Stratrec_geom.Box3.t
(** Satisfaction region in the normalized smaller-is-better space: the
    axis-parallel box anchored at the origin with top-right corner
    [Params.to_point params] (§4.1). *)

val pp : Format.formatter -> t -> unit
