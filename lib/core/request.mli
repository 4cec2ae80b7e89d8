(** First-class deployment requests — the operational envelope around a
    paper-level {!Stratrec_model.Deployment}.

    The paper's request (§2.1) is the threshold triple plus the
    cardinality constraint; a {e served} request additionally carries the
    metadata the middle layer needs once StratRec runs as a daemon
    between requesters and platforms: the tenant it belongs to (admission
    fairness is per tenant) and an optional wall-clock deadline budget
    (requests that wait in the admission queue past their budget are
    rejected with a typed response instead of being triaged late).

    This is the one request currency shared by {!Engine.submit}, the
    [stratrec-serve] wire protocol and the CLI — replacing the ad-hoc per-request tuples that used to be threaded
    around the Aggregator. A [Request.t] wraps its {!deployment}
    unchanged, so converting to the paper-level record and back is the
    identity and cannot perturb triage. *)

type t = {
  tenant : string;
      (** admission-fairness key; [""] is the anonymous default tenant *)
  deadline_hours : float option;
      (** queue-deadline budget in hours, on the same axis as
          {!Stratrec_resilience.Retry.policy.deadline_hours}; [None] =
          no deadline. Always positive (construction validates). *)
  deployment : Stratrec_model.Deployment.t;  (** the paper-level request *)
}

val make :
  id:int ->
  ?label:string ->
  ?tenant:string ->
  ?deadline_hours:float ->
  params:Stratrec_model.Params.t ->
  k:int ->
  unit ->
  t
(** Like {!Stratrec_model.Deployment.make} with the envelope fields.
    @raise Invalid_argument if [k < 1] or [deadline_hours <= 0]. *)

val of_deployment : ?tenant:string -> ?deadline_hours:float -> Stratrec_model.Deployment.t -> t
(** Wrap an existing deployment (default: anonymous tenant, no
    deadline). [deployment (of_deployment d) == d].
    @raise Invalid_argument if [deadline_hours <= 0]. *)

val deployment : t -> Stratrec_model.Deployment.t

(** {1 Accessors} *)

val tenant : t -> string
val deadline_hours : t -> float option
val id : t -> int
val label : t -> string
val params : t -> Stratrec_model.Params.t
val k : t -> int

val equal : t -> t -> bool
(** Structural: envelope fields plus the deployment's id, label, [k] and
    parameter triple (parameters via {!Stratrec_model.Params.equal}). *)

(** {1 Codecs} *)

val to_json : t -> Stratrec_util.Json.t
(** Flat object: the {!Stratrec_model.Codec.deployment_to_json} fields
    plus ["tenant"] (omitted when anonymous) and ["deadline_hours"]
    (omitted when [None]). *)

val of_json : Stratrec_util.Json.t -> (t, string) result
(** Parses {!to_json} output and hand-written variants: ["label"]
    defaults to ["d<id>"], ["params"] accepts the object or the compact
    ["Q,C,L"] string form, ["tenant"]/["deadline_hours"] are optional,
    unknown fields are ignored (the wire protocol nests a request next
    to its ["op"] key). Errors name the offending field. *)

val to_string : t -> string
(** Compact one-line spelling, e.g.
    ["id=3;tenant=acme;params=0.9,0.2,0.3;k=5;deadline=24"] — default
    label, anonymous tenant and absent deadline are omitted. *)

val of_string : string -> (t, string) result
(** Parses the {!to_string} form: semicolon-separated [key=value] pairs
    ([id] and [params] required, [k] defaults to 1); whitespace around
    separators is tolerated. *)

val pp : Format.formatter -> t -> unit
