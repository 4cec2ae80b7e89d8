(** Bounded multi-tenant admission queue with per-tenant quotas and
    weighted fair draining (DESIGN.md §5g, §5i).

    The daemon's front door: requests wait here between arrival and the
    next epoch. The queue is {e bounded} — when full, {!offer} returns a
    typed [`Queue_full] so the protocol layer can answer with
    backpressure instead of dropping or blocking — {e quota-checked} —
    a tenant at its [max_queued] cap gets a typed [`Quota_exceeded]
    while everyone else keeps being admitted — and {e weighted-fair}:
    {!drain} dequeues by deficit round-robin across tenants (FIFO
    within a tenant), so one chatty tenant cannot starve the rest of an
    epoch, and a weight-2 tenant receives twice the epoch share of a
    weight-1 one.

    Time: the queue reads a caller-supplied clock in {e seconds} (wall
    or simulated — the daemon's [tick] verb advances a simulated
    offset). Per-item deadlines are budgets in {e hours} on the same
    axis as {!Stratrec_resilience.Retry.policy.deadline_hours}: an item
    whose wait exceeds its budget is expired at drain time and handed
    back separately, never silently discarded, and the unspent
    remainder is what the daemon forwards to the engine's retry
    machinery. The queue is agnostic to what it carries. *)

(** One tenant's admission contract. [weight] scales its share of each
    drained epoch (relative to the other waiting tenants); [max_queued]
    bounds how many of its requests may wait at once; [max_in_flight]
    bounds how many enter a single epoch (the surplus stays queued for
    the next one). *)
type quota = { weight : float; max_queued : int option; max_in_flight : int option }

val default_quota : quota
(** Weight 1, no caps — every unconfigured tenant. *)

val validate_quota : quota -> (unit, string) result
(** Weight positive and finite, caps [>= 1]; the error names the field. *)

val quota_of_string : string -> (string * quota, string) result
(** Parse the compact spelling
    [tenant=acme;weight=2;max-queued=16;max-in-flight=4] (only
    [tenant=] is required; the [--quota] flag and config files use
    this). Never raises. *)

val quota_to_string : string * quota -> string
(** Round-trips through {!quota_of_string}. *)

type 'a t

val create : capacity:int -> ?quotas:(string * quota) list -> unit -> 'a t
(** An empty queue admitting at most [capacity] waiting items in total,
    with per-tenant [quotas] (unlisted tenants get {!default_quota}).
    @raise Invalid_argument if [capacity < 1] or a quota is invalid. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Items currently waiting. *)

val quota : 'a t -> tenant:string -> quota
(** The tenant's configured quota, or {!default_quota}. *)

val tenant_depth : 'a t -> tenant:string -> int
(** Items the tenant currently has waiting. *)

val offer :
  'a t ->
  now:float ->
  tenant:string ->
  ?deadline_hours:float ->
  'a ->
  (unit, [ `Queue_full | `Quota_exceeded of int * int ]) result
(** Enqueue at clock reading [now] (seconds). [deadline_hours] is the
    item's total patience from this moment; [None] waits forever.
    [`Queue_full] when the shared bound is hit; [`Quota_exceeded
    (queued, limit)] when the tenant is at its own [max_queued] cap
    while the shared queue still has room.
    @raise Invalid_argument if [deadline_hours <= 0]. *)

(** A drained item, with its queueing telemetry. *)
type 'a admitted = {
  item : 'a;
  tenant : string;
  admitted_at : float;
      (** clock reading (seconds) at {!offer} — the first stamp of the
          request's latency lineage *)
  waited_seconds : float;  (** time spent in the queue *)
  remaining_hours : float option;
      (** unspent deadline budget at drain time ([None]: no deadline);
          [Some 0.] exactly when the item expired *)
}

val drain : 'a t -> now:float -> max:int -> 'a admitted list * 'a admitted list
(** [drain t ~now ~max] removes up to [max] live items by weighted
    deficit round-robin — each pass banks every waiting tenant's weight
    and dequeues one item per whole unit, FIFO within a tenant — and
    returns them in dequeue order, together with {e every} expired item
    found while draining (deadline elapsed at [now]; their
    [remaining_hours] is [Some 0.]). Expired items count against
    neither [max] nor the tenant's deficit. A tenant at its
    [max_in_flight] cap contributes no further items to this drain and
    keeps the surplus queued. Unit weights reduce to plain round-robin
    in tenant arrival order. *)

val evict_all : 'a t -> now:float -> 'a admitted list
(** Remove and return {e everything} still queued, live or not, in
    enqueue order (then tenant) — the drain-timeout force-close path.
    The queue is empty afterwards. *)
