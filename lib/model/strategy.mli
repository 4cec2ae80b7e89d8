(** Deployment strategies (§2.1).

    A strategy is a workflow of one or more (Structure, Organization, Style)
    stages — single-stage in the common case, multi-stage for
    Turkomatic-style worker-designed workflows — together with its estimated
    parameter triple and its availability-response model. *)

type t = {
  id : int;
  label : string;
  stages : Dimension.combo list;  (** non-empty *)
  params : Params.t;  (** estimated (quality, cost, latency) *)
  model : Linear_model.t;
}

val make :
  id:int ->
  ?label:string ->
  stages:Dimension.combo list ->
  params:Params.t ->
  model:Linear_model.t ->
  unit ->
  t
(** Default label is the stage labels joined with ["+"].
    @raise Invalid_argument on an empty stage list. *)

val single :
  id:int -> Dimension.combo -> params:Params.t -> model:Linear_model.t -> t

val point : t -> Stratrec_geom.Point3.t
(** Normalized smaller-is-better point of {!val-params}. *)

val instantiate : t -> availability:float -> t
(** Re-estimates [params] from the model at the given availability
    (Aggregator step 1, §2.2). *)

val workflow_space_size : stages:int -> float
(** Number of distinct strategies for a workflow of [stages] tasks when
    each stage picks one of the 8 combos: [8 ^ stages] (§2.1's
    combinatorial argument, e.g. ~1.07e9 for 10 stages). *)

val equal : t -> t -> bool
(** Identity comparison (by [id]). *)

val pp : Format.formatter -> t -> unit
