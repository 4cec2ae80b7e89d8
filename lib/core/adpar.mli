(** ADPaR — Alternative Deployment Parameter Recommendation (Problem 2,
    §4).

    Given a request [d] that cannot be satisfied, find the alternative
    parameter triple [d'] minimizing the Euclidean distance to [d] such
    that at least [k] strategies satisfy [d'] (Eq. 3; the paper states the
    cardinality as an equality, but a tighter cover is never worse for the
    requester, so we accept covers of [>= k] — the optimum generically
    covers exactly [k]).

    The search space follows the paper's normalization (§4.1): quality is
    inverted so all axes are smaller-is-better, each strategy becomes a
    non-negative {e relaxation triple} (how far [d] must move per axis to
    admit it, 0 when already admitted), and by Lemma 1/2 the optimal [d']
    has each coordinate equal to [d]'s coordinate or to one of those
    relaxation values. [exact] sweeps quality-relaxation candidates in
    ascending order (the paper's sweep line), maintains the k-smallest
    latency relaxations along a cost-ordered sweep, and prunes with the
    monotone objective — exact like the paper's ADPaR-Exact, with an
    O(n^2 log k) bound instead of the paper's cubic scan. Given the
    catalog's {!skyband}, it sweeps only the strategies that fewer than
    [k] others dominate, with the same answer. *)

type result = {
  alternative : Stratrec_model.Params.t;  (** d' *)
  distance : float;  (** l2(d, d') — the Eq. 3 objective *)
  recommended : Stratrec_model.Strategy.t list;
      (** exactly [k] strategies satisfying d', in catalog order *)
  covered_count : int;  (** total number of strategies satisfying d' *)
}

(** {1 The k-skyband}

    Strategy [j] {e dominates} [i] when it is [<=] on all three inverted
    coordinates (1 - quality, cost, latency, the floats the relaxations
    are computed from) and either [<] on one of them or earlier in the
    catalog array; {!Stratrec_model.Strategy.id} plays no part. Each
    relaxation is monotone in one coordinate, so a dominator's relaxation
    triple is [<=] the dominated one's for every request, and a strategy
    with [k] dominators can be exchanged out of any k-cover without
    raising its envelope (DESIGN.md §5). The optimum is therefore found
    among the strategies with fewer than [k] dominators — the catalog's
    k-skyband — which does not depend on the request. *)

type skyband
(** Per-strategy dominance counts over one catalog array, capped at
    {!skyband_cap}. Immutable once built: domains may share one. *)

val skyband_cap : int
(** 10: counts stop here, and a call whose [k] is above it sweeps the
    whole catalog. *)

val skyband : Stratrec_model.Strategy.t array -> skyband
(** [skyband strategies] counts each strategy's dominators, up to the cap,
    by a scan in ascending (1 - quality) order that stops at the first
    larger value or at the cap-th dominator: O(n log n) plus at most
    O(n^2) comparisons, far fewer on real catalogs (~1 ms at n = 1000).
    The skyband keeps the array's identity: pass [exact] this very array. *)

val skyband_size : skyband -> k:int -> int
(** How many strategies the sweep visits for [k]: those with fewer than
    [k] dominators, or the whole catalog when [k > skyband_cap]. Never
    below [min n k]. *)

val exact :
  ?metrics:Stratrec_obs.Registry.t ->
  ?trace:Stratrec_obs.Trace.t ->
  ?prune:bool ->
  ?skyband:skyband ->
  ?k:int -> strategies:Stratrec_model.Strategy.t array -> Stratrec_model.Deployment.t ->
  result option
(** [k] defaults to the request's own cardinality constraint. [None] when
    the catalog holds fewer than [k] strategies. If the request is already
    satisfiable the result is the request itself with distance 0.
    [prune] (default true) enables the monotone-objective cut-offs; turning
    it off forces the full discrete scan of the swept strategies (the
    skyband members when one is given, else the catalog) and exists only
    for the ablation bench — results are identical either way.

    [skyband] must come from {!skyband} on this [strategies] array
    (physically), or [exact] raises [Invalid_argument]. With it, and
    [k <= skyband_cap], the sweep visits only the b strategies with fewer
    than [k] dominators: O(b^2 log k) instead of O(n^2 log k), plus O(n)
    passes for the relaxations and the k-cover. The result is the full
    sweep's, bit for bit: the same alternative and distance (float
    ties included — a last pass over the catalog takes the full sweep's
    own z where strategies share the optimal cost relaxation), and
    [recommended] and [covered_count] still come from the whole catalog.
    Only the two sweep counts {!record} writes differ: they count the
    skyband sweep, whose [adpar.sweep_events_total] never exceeds the
    full sweep's. Without [skyband], or with [k]
    above the cap, or when every strategy is a member, [exact] is the
    full sweep — the paper's algorithm, and the oracle the skyband path
    is tested against.

    The sweep works on flat float arrays with one reused k-element heap:
    a call allocates a handful of length-n arrays, and no record per
    strategy or per sweep event.

    [exact] is {!answer} timed on the [metrics] registry's clock, then
    {!record} into [metrics] (default {!Stratrec_obs.Registry.noop}) and
    [trace] (default {!Stratrec_obs.Trace.noop}). *)

(** {1 Answers as values}

    What one call computes and what it records are separate, so a caller
    can compute answers anywhere (on a pool's domains, or once for a
    cache) and record each one later, on its own registry and trace. *)

type answer = {
  result : result option;  (** what {!exact} returns *)
  k : int;  (** the cardinality searched for *)
  catalog_size : int;  (** strategies in the catalog *)
  sweep_events : int;  (** (x, y) candidates visited on the cost sweep line *)
  prune_cutoffs : int;  (** monotone-objective cuts, on either sweep *)
  search_seconds : float;
      (** the search's duration on the [clock] {!answer} was given;
          negative only if that clock stepped backwards *)
}

val answer :
  ?clock:(unit -> float) ->
  ?prune:bool ->
  ?skyband:skyband ->
  ?k:int -> strategies:Stratrec_model.Strategy.t array -> Stratrec_model.Deployment.t ->
  answer
(** The search of {!exact}, with the same arguments, raising the same
    [Invalid_argument]s, recording nothing. [clock] (default: always 0.)
    is read before and after the search. The catalog, the skyband and
    the request are only read, so answers for different requests may be
    computed on different domains at once, given a [clock] that is safe
    to call from any domain. *)

val record :
  ?metrics:Stratrec_obs.Registry.t -> ?trace:Stratrec_obs.Trace.t -> answer -> unit
(** Everything an ADPaR call records, the one place it is defined.

    [metrics] gets [adpar.calls_total], [adpar.sweep_events_total] and
    [adpar.prune_cutoffs_total] (the answer's per-call totals, added only
    when non-zero, so a call without cut-offs leaves
    [adpar.prune_cutoffs_total] absent), one [adpar.search_seconds]
    sample of [search_seconds] (as {!Stratrec_obs.Span.observe} records
    it), and [adpar.no_alternative_total] when [result] is [None].

    [trace] gets one [adpar.exact] span, with no children (attributes:
    k, catalog size, and the resulting distance or [no_alternative]). It
    is opened when the answer is recorded, after the search: it gives
    the call's place in the tree, not its timing, which is
    [adpar.search_seconds]. *)

(** {1 Trace — the paper's working data structures (Tables 2–5)} *)

(** Per-strategy relaxation triple (Table 3), in the inverted space. *)
type relaxation = {
  strategy_id : int;
  quality : float;
  cost : float;
  latency : float;
}

(** One entry of the sorted event list (Table 4): R = relaxation value,
    I = strategy id, D = axis. *)
type event = { value : float; strategy_id : int; axis : Stratrec_model.Params.axis }

type trace = {
  relaxations : relaxation list;  (** Table 3, catalog order *)
  events : event list;  (** Table 4, ascending by value *)
  sweep_orders : (Stratrec_model.Params.axis * relaxation list) list;
      (** Table 5: for each axis' sweep line, strategies sorted by their
          relaxation on that axis *)
  coverage : (int * bool * bool * bool) list;
      (** final matrix M (Table 2): per strategy, whether the returned d'
          covers its (quality, cost, latency) axes *)
}

val exact_with_trace :
  ?k:int -> strategies:Stratrec_model.Strategy.t array -> Stratrec_model.Deployment.t ->
  (result * trace) option

val relaxations_of :
  strategies:Stratrec_model.Strategy.t array -> Stratrec_model.Deployment.t ->
  relaxation array
(** Step 1 of ADPaR-Exact on its own. *)

val covers :
  alternative:Stratrec_model.Params.t -> Stratrec_model.Strategy.t -> bool
(** Whether a strategy satisfies the alternative parameters (with a 1e-9
    tolerance against floating-point drift of the reconstructed d'). *)
