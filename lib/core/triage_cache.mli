(** Triage cache: cross-request memoization of ADPaR for one session.

    Heavy traffic repeats a small space of (threshold, availability)
    shapes, and the ADPaR alternative ({!Adpar.answer}) of a request
    BatchStrat leaves unsatisfied is a pure function of (models, W,
    request params, k), so it can be memoized exactly. This module is a
    bounded LRU over those answers, keyed on the quantized request
    parameters plus k. The BatchStrat requirement is not cached: it is
    one catalog scan ({!Stratrec_model.Workforce.streaming_requirement}),
    and a stream that never repeats would pay a probe, a store and an
    eviction to save it. Everything else an answer depends on is fixed
    for the cache's whole life: {!Aggregator.run} reaches a cache only
    through the {!Aggregator.memo} that holds it, and a memo binds, at
    its first run, to one catalog and W, refusing runs with any other.
    So no entry can go stale, and nothing is ever flushed; LRU eviction
    is the only way out.

    {b Bit-identity.} A hit must be observationally indistinguishable
    from recomputation — the same discipline the [--domains] work
    established. Two mechanisms guarantee it:

    - {e Exact-match guard:} the table is keyed on quantized parameters
      (quantum {!quantum}), but every entry also stores the exact
      {!Stratrec_model.Params.t} and [k] it was computed for, compared
      with {!Stratrec_model.Params.equal} on lookup. A quantization
      collision is therefore a {e miss}, never a wrong answer.
    - {e Answers as values:} an entry is the {!Adpar.answer} of the miss
      that computed it: the result plus everything the call records
      (sweep counts, the search's duration). {!Aggregator.run} records
      every answer, hit or miss, through {!Adpar.record} in request
      order, so counters, span tree and span ids come out as an
      uncached run's.

    The cache itself is {e not} thread-safe: under the domain pool the
    aggregator probes and stores sequentially and only the miss
    computations run sharded. Hit/miss/eviction tallies go to the
    [cache.{hits,misses,evictions}_total] counters of the registry bound
    at {!create}; those counters (and the [cache.*] gauges of
    {!export}) are the only observable difference between a cached and
    an uncached run. *)

type config = { capacity : int  (** maximum resident entries, >= 1 *) }

val default_config : config
(** 2048 entries: one ADPaR answer each. *)

val policy_of_string : string -> (config option, string) result
(** CLI spelling: ["off"]/["0"] is [None] (cache disabled), ["on"] the
    {!default_config}, and a positive integer a capacity override. *)

val policy_to_string : config option -> string

type t

val create : ?config:config -> metrics:Stratrec_obs.Registry.t -> unit -> t
(** [metrics] receives the [cache.*] counters (registered at 0 so they
    are visible on scrape surfaces before the first probe).
    @raise Invalid_argument if [config.capacity < 1]. *)

val quantum : float
(** Parameter quantization step (1e-6) for the table key. Lookup
    correctness never depends on it (see the exact-match guard); it only
    bounds how many distinct keys near-identical requests can occupy. *)

val find : t -> params:Stratrec_model.Params.t -> k:int -> Adpar.answer option
(** [None] is a miss, [Some answer] a hit. Touches LRU order and counts
    [cache.hits_total]/[cache.misses_total]. *)

val store : t -> params:Stratrec_model.Params.t -> k:int -> Adpar.answer -> unit
(** Inserting at capacity evicts the least-recently-used entry and
    counts [cache.evictions_total]; storing an existing key replaces its
    entry. *)

type stats = { hits : int; misses : int; evictions : int; size : int }

val stats : t -> stats
(** Lifetime tallies; [size] is current residency. *)

val hit_ratio : t -> float
(** [hits / (hits + misses)]; 0 before the first probe. *)

val export : t -> unit
(** Publish [cache.size] and [cache.hit_ratio] gauges to the registry
    bound at {!create} — gauges only, off the bit-identity path. *)
