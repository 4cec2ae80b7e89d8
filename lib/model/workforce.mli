(** Workforce-requirement computation (§3.2).

    Step 1 builds the m x |S| matrix W where cell (i, j) is the minimum
    workforce needed to deploy request i with strategy j (and whether the
    strategy's estimated parameters satisfy the request at all): the
    strategy's linear model ({!Linear_model}) inverted at the request's
    thresholds. Step 2 aggregates each row into the request's workforce
    requirement under the Sum-case (deploy all k recommended strategies)
    or Max-case (deploy only one of them), using k-smallest selection.

    Two inversion rules are provided. The paper's §3.2 rule solves every
    axis at equality and takes the max; that is well-defined when all three
    axes behave as lower bounds on workforce, which holds in the synthetic
    setup of §5.2.2 (every axis gets [alpha > 0], [beta = 1 - alpha]). With
    realistic signs, cost is an {e upper} bound that grows with workforce,
    so meeting a cost budget caps the workforce instead of requiring it; the
    direction-aware rule {!workforce_requirement} accounts for that: it
    takes the max of the lower-bounding axes and checks it against every
    cap. The two coincide whenever no axis produces a cap.

    Step 2 is one scan, shared by {!request_requirement} (over a matrix
    row) and {!streaming_requirement} (over the catalog, inverting each
    strategy as it goes). It keeps the k cheapest feasible (requirement,
    strategy index) pairs in a max-heap over two flat k-slot arrays,
    ordered by [Float.compare] on the requirement, then by index: O(|S|
    log k) time and O(k) memory. {!streaming_requirement} inlines both
    inversions, the satisfaction test and the heap insertion, so no
    strategy costs it a call or an allocation: a call allocates its
    k-slot heap and its answer, whatever |S|. A [k] above |S| answers
    [None] before any k-slot array exists, so an unbounded [k] from a
    request costs nothing. *)

type aggregation = Sum_case | Max_case

type cell =
  | Infeasible  (** strategy cannot meet the thresholds, or does not satisfy them *)
  | Feasible of float
      (** minimum workforce: in [\[0, 1\]] under the paper rule, in
          [\[-1e-9, 1\]] under the direction-aware one (see
          {!workforce_requirement}) *)

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
    {!workforce_requirement} (default) and the paper-literal
    {!workforce_requirement_paper} used by the synthetic experiments.
    O(m |S|). *)

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

val workforce_requirement : Linear_model.t -> request:Params.t -> float option
(** Direction-aware minimum availability meeting all three thresholds.
    The floor is the max of [0.] and every lower bound, the cap the min
    of [1.] and every upper bound. The answer is the floor when it does
    not exceed the cap, the cap when the floor exceeds it by at most a
    [1e-9] tolerance, and [None] beyond that or when a constant axis
    misses its threshold. So a feasible requirement lies in
    [\[-1e-9, 1\]], not [\[0, 1\]]: a cap just below the floor [0.] is
    the answer, which can be [-0.] or as low as about [-1e-9]. *)

val workforce_requirement_paper : Linear_model.t -> request:Params.t -> float option
(** The literal §3.2 rule: solve each axis at equality, clamp negatives to
    0, take the max; [None] if any axis is unsolvable or its solution
    exceeds 1. Matches the synthetic experiments of §5.2.2. A feasible
    requirement lies in [\[0, 1\]]. *)

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
    same scan as {!request_requirement}, inverting each strategy as it
    goes. Agrees exactly with {!compute} + {!request_requirement}. Under
    the direction-aware rule, once the heap holds [k] pairs and its
    costliest is at most [0.], a strategy enters only with a negative
    requirement, and one that cannot have one is skipped before its
    inversion (DESIGN §5 has the proof); a request that k strategies
    meet at zero workforce then costs a few comparisons per strategy.
    This is the serving path: [Stratrec.Aggregator.run] computes every
    request's requirement with it, and it also keeps the Fig. 14 sweep
    at m = |S| = 10000 in O(k) memory.
    @raise Invalid_argument when [k < 1]. *)

val feasible_count : matrix -> int -> int
(** Number of feasible cells in row [i]. *)
