(** Platform-centric optimization goals for batch deployment (§2.3).

    Throughput counts satisfied requests; Pay-off sums the cost each
    satisfied requester is willing to expend. Throughput is solvable
    exactly by the greedy algorithm; Pay-off maximization is NP-hard
    (Theorem 1). *)

type t = Throughput | Payoff

val value : t -> Stratrec_model.Deployment.t -> float
(** Per-request objective contribution f_i: 1 for throughput, the
    request's cost for pay-off. *)

val exact_greedy : t -> bool
(** Whether plain greedy is exact (true only for [Throughput], Theorem 2);
    otherwise BatchStrat applies the best-single correction of Theorem 3. *)

val label : t -> string
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Alias of {!label}. *)

val of_string : string -> (t, string) result
(** Case-insensitive ["throughput"] or ["payoff"]. The CLI and
    {!Engine} parse objectives through this. *)
