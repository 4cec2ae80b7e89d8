(** Synthetic workload generation (§5.2.2).

    Strategy dimension values are drawn from a uniform U[0.5, 1] or a
    normal N(0.75, 0.1) distribution; each strategy's availability-response
    model draws alpha ~ U[0.5, 1] per axis with beta = 1 - alpha; request
    parameters are drawn from [\[0.625, 1\]] (quality threshold included:
    the paper treats all three uniformly after normalization). *)

type dist_kind = Uniform | Normal

val dist_kind_to_string : dist_kind -> string
(** CLI spelling (["uniform"]/["normal"]) — inverse of
    {!dist_kind_of_string}, the standard codec pair every CLI-parseable
    type exposes (see [Stratrec_cli.Conv]). *)

val dist_kind_of_string : string -> (dist_kind, string) result
(** Case-insensitive ["uniform"] / ["normal"] — the CLI's [--dist]
    values. *)

val strategies :
  Stratrec_util.Rng.t -> n:int -> kind:dist_kind -> Strategy.t array
(** [n] single-stage strategies with ids [0..n-1]; stage combos cycle
    through the 8 instantiations. *)

val requests : Stratrec_util.Rng.t -> m:int -> k:int -> Deployment.t array
(** [m] requests with ids [0..m-1] and cardinality constraint [k]. The
    §5.2.2 thresholds are drawn from [\[0.625, 1\]] in the normalized
    smaller-is-better space, i.e. generous budgets: the cost and latency
    upper bounds are the drawn values, the quality lower bound is
    [1 - draw]. *)

val workflows :
  Stratrec_util.Rng.t -> n:int -> stages:int -> kind:dist_kind -> Strategy.t array
(** Turkomatic-style multi-stage strategies (§2.1's workflow argument: with
    [x] stages there are [8^x] possible strategies). Each stage draws its
    own parameter triple from the [kind] distribution; the workflow's
    parameters compose structure-aware: quality is the geometric mean of
    stage qualities (errors compound), cost is the stage average (budget
    split across stages), and latency averages sequential stages but takes
    the max over consecutive simultaneous ones (parallel stages overlap).
    The availability model is drawn per workflow as in {!strategies}.
    @raise Invalid_argument if [stages < 1]. *)
