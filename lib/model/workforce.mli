(** Workforce-requirement computation (§3.2).

    Step 1 builds the m x |S| matrix W where cell (i, j) is the minimum
    workforce needed to deploy request i with strategy j (and whether the
    strategy's estimated parameters satisfy the request at all). Step 2
    aggregates each row into the request's workforce requirement under the
    Sum-case (deploy all k recommended strategies) or Max-case (deploy only
    one of them), using k-smallest selection.

    Step 2 is one scan, shared by {!request_requirement} (over a matrix
    row) and {!streaming_requirement} (over the catalog, inverting each
    cell as it goes). It keeps the k cheapest feasible (requirement,
    strategy index) pairs in a max-heap over two flat k-slot arrays,
    ordered by [Float.compare] on the requirement, then by index: O(|S|
    log k) time, O(k) memory, and no allocation per cell beyond the box
    of an inverted requirement. A [k] above |S| answers [None] before
    any k-slot array exists, so an unbounded [k] from a request costs
    nothing. *)

type aggregation = Sum_case | Max_case

type cell =
  | Infeasible  (** strategy cannot meet the thresholds, or does not satisfy them *)
  | Feasible of float  (** minimum workforce in [\[0, 1\]] *)

type matrix = {
  requests : Deployment.t array;
  strategies : Strategy.t array;
  cells : cell array array;  (** [cells.(i).(j)] for request i, strategy j *)
}

val compute :
  ?rule:[ `Direction_aware | `Paper_equality ] ->
  requests:Deployment.t array ->
  strategies:Strategy.t array ->
  unit ->
  matrix
(** A cell is [Feasible w] iff the strategy's estimated parameters satisfy
    the request's thresholds {e and} the model inversion yields a feasible
    requirement (§3.2 step 1). The [rule] selects between
    {!Linear_model.workforce_requirement} (default) and the paper-literal
    {!Linear_model.workforce_requirement_paper} used by the synthetic
    experiments. O(m |S|). *)

val compute_with :
  requirement:(Deployment.t -> Strategy.t -> float option) ->
  requests:Deployment.t array ->
  strategies:Strategy.t array ->
  matrix
(** Generalized constructor with a custom per-cell rule (used by tests and
    by experiments that bypass the satisfaction check). *)

type request_requirement = {
  workforce : float;  (** aggregated workforce \vec{w}_i *)
  chosen : int list;  (** indices of the k cheapest feasible strategies, ascending requirement *)
}

val request_requirement :
  matrix -> aggregation -> k:int -> int -> request_requirement option
(** Row aggregation (§3.2 step 2): the [k] smallest feasible cells of row
    [i]; Sum-case sums them in ascending order from [0.], Max-case takes
    the k-th smallest. Equal requirements go to the lower strategy index.
    [None] when fewer than [k] cells are feasible. O(|S| log k).
    @raise Invalid_argument when [k < 1]. *)

val streaming_requirement :
  ?rule:[ `Direction_aware | `Paper_equality ] ->
  aggregation ->
  k:int ->
  strategies:Strategy.t array ->
  Deployment.t ->
  request_requirement option
(** Single-request aggregation without materializing a matrix row: the
    same scan as {!request_requirement}, inverting each cell with
    {!Linear_model.min_workforce} (or {!Linear_model.min_workforce_paper})
    as it goes. Agrees exactly with {!compute} + {!request_requirement}.
    This is the serving path: [Stratrec.Aggregator.run] computes every
    request's requirement with it, and it also keeps the Fig. 14 sweep
    at m = |S| = 10000 in O(k) memory.
    @raise Invalid_argument when [k < 1]. *)

val feasible_count : matrix -> int -> int
(** Number of feasible cells in row [i]. *)
