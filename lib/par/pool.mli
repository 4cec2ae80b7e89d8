(** Fixed-size domain pool for shared-nothing batch parallelism.

    A pool owns [domains - 1] worker domains (the calling domain is the
    remaining one) that persist across {!run} calls, so the spawn cost is
    paid once per process, not once per batch. Work is handed out as a
    fixed number of {e shards}: [run pool ~shards f] executes [f s] once
    for every shard index [s] in [\[0, shards)], statically assigned
    round-robin across the domains ([s mod size] — no work stealing), and
    returns when every shard has finished. Static assignment keeps the
    execution plan a pure function of [(size, shards)], which is what
    lets callers produce bit-identical output regardless of scheduling.

    Shard bodies must be shared-nothing: each shard writes only its own
    slice of any result buffer. The aggregator's shards compute plain
    values and record nothing; the caller records them afterwards, in
    order, on its own domain.

    A pool of size 1 spawns no domains and runs shards inline in index
    order — exactly the sequential path. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains that idle on a
    condition variable until work arrives. @raise Invalid_argument when
    [domains < 1]. When the runtime cannot spawn them all (it caps the
    number of live domains), the workers already spawned are joined and
    the runtime's [Failure] is re-raised. *)

val size : t -> int
(** The configured domain count (including the caller). *)

val shared : domains:int -> t
(** The process-wide pool of this size, created on first request and
    reused by every later call — the Aggregator's entry point, so
    repeated [run ~domains:4] calls share one set of worker domains.
    Shared pools are never shut down. A failed creation (see {!create})
    caches nothing, so a later call can still succeed. *)

val run : t -> shards:int -> (int -> unit) -> unit
(** [run t ~shards f] executes [f 0 .. f (shards - 1)], shard [s] on
    domain [s mod size t], and blocks until all shards are done. The
    calling domain participates (it runs the [s mod size = 0] shards).
    If shards raise, one of the exceptions (the first recorded) is
    re-raised in the caller after every domain has quiesced.

    Shards are run inline, in index order, when the pool has size 1 or
    [shards <= 1]. @raise Invalid_argument when [shards < 0], when the
    pool is shut down, or on a concurrent [run] on the same pool (pools
    are not reentrant — one batch at a time). *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent; later {!run}s raise. Intended
    for tests — long-lived processes keep their pools. *)

(** {1 Utilization}

    Every pool keeps per-domain utilization tallies: shard-tasks run
    (always counted — one integer bump per shard), and — only while
    profiling is switched on, so the default path never reads a clock
    per shard — wall seconds spent inside shard bodies and wall seconds
    a worker waited between a job's publication and picking it up.
    Profiling alters no pool behaviour and none of the caller-visible
    output (the execution plan stays a pure function of
    [(size, shards)]); it only adds clock reads. Toggle and read between
    {!run}s, not during one. *)

type domain_stats = {
  tasks : int;  (** shards executed by this domain *)
  busy_seconds : float;  (** wall time inside shard bodies (profiling only) *)
  queue_wait_seconds : float;
      (** publication-to-pickup wall time, workers only (profiling only) *)
}

val set_profiling : t -> bool -> unit
(** Switch the clocked probes on or off (default: off). *)

val profiling : t -> bool

val stats : t -> domain_stats array
(** One entry per domain, index 0 = the calling domain. Cumulative since
    creation or the last {!reset_stats}. *)

val reset_stats : t -> unit
(** Zero all tallies — shared pools accumulate across runs, so callers
    profiling a single batch reset before and {!export} after. *)

val export : t -> metrics:Stratrec_obs.Registry.t -> unit
(** Write the current tallies into [metrics] as [par.*] gauges:
    [par.pool_domains], [par.tasks_run], [par.busy_seconds],
    [par.queue_wait_seconds], [par.shard_imbalance_ratio] (max-over-mean
    busy seconds; 1.0 = perfectly balanced, 0 = nothing ran) and
    per-domain [par.domain<i>.tasks_run] / [.busy_seconds] /
    [.queue_wait_seconds]. Gauges only — exporting perturbs no counter,
    span or decision, so profiled runs stay bit-identical on the
    deterministic surface. *)
