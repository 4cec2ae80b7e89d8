(** JSON codecs for the data model.

    Catalogs are exchanged as JSON documents by the CLI (and by anything
    integrating StratRec into a platform); requests use the
    {!deployment_to_json} fields. Decoding is total and validating: a
    malformed document yields [Error] with a path-qualified message,
    never an exception. *)

module Json = Stratrec_util.Json

val params_to_json : Params.t -> Json.t

val params_of_json : Json.t -> (Params.t, string) result
(** Accepts the canonical [{"quality": _, "cost": _, "latency": _}]
    object and, for hand-written documents, the compact string form
    ["QUALITY,COST,LATENCY"] of {!Params.of_string} (the same spelling
    the CLI's [--request] argument uses). *)

val model_to_json : Linear_model.t -> Json.t

val strategy_to_json : Strategy.t -> Json.t
val strategy_of_json : Json.t -> (Strategy.t, string) result

val deployment_to_json : Deployment.t -> Json.t
val deployment_of_json : Json.t -> (Deployment.t, string) result

val catalog_to_json : Strategy.t array -> Json.t
val catalog_of_json : Json.t -> (Strategy.t array, string) result
(** An object [{"strategies": [...]}]. *)

(** {1 File helpers} *)

val save : path:string -> Json.t -> unit
(** Pretty-printed, trailing newline. @raise Sys_error on IO failure. *)

val load : path:string -> (Json.t, string) result
(** Reads and parses; IO failures are reported as [Error]. *)
