module type STRINGABLE = sig
  type t

  val to_string : t -> string
  val of_string : string -> (t, string) result
end

module Make (S : STRINGABLE) = struct
  let conv =
    let parse s = Result.map_error (fun m -> `Msg m) (S.of_string s) in
    let print ppf v = Format.pp_print_string ppf (S.to_string v) in
    Cmdliner.Arg.conv (parse, print)
end

let of_stringable (type a) (module S : STRINGABLE with type t = a) =
  let module C = Make (S) in
  C.conv

let params = of_stringable (module Stratrec_model.Params)
let objective = of_stringable (module Stratrec.Objective)
let window = of_stringable (module Stratrec_crowdsim.Window)
let fault = of_stringable (module Stratrec_resilience.Fault)

let dist_kind =
  of_stringable
    (module struct
      type t = Stratrec_model.Workload.dist_kind

      let to_string = Stratrec_model.Workload.dist_kind_to_string
      let of_string = Stratrec_model.Workload.dist_kind_of_string
    end)

let workforce =
  of_stringable
    (module struct
      type t = float

      let to_string = Float.to_string

      (* Written so nan fails the range check too. *)
      let of_string s =
        match float_of_string_opt s with
        | Some v when v >= 0. && v <= 1. -> Ok v
        | _ -> Error (Printf.sprintf "invalid workforce %S: expected a number in [0,1]" s)
    end)

let count ~min =
  of_stringable
    (module struct
      type t = int

      let to_string = string_of_int

      let of_string s =
        match int_of_string_opt s with
        | Some v when v >= min -> Ok v
        | _ -> Error (Printf.sprintf "invalid count %S: expected an integer >= %d" s min)
    end)

let request = of_stringable (module Stratrec.Request)

let slo =
  of_stringable
    (module struct
      type t = Stratrec_obs.Slo.spec

      let to_string = Stratrec_obs.Slo.spec_to_string
      let of_string = Stratrec_obs.Slo.spec_of_string
    end)

let quota =
  of_stringable
    (module struct
      type t = string * Stratrec_serve.Admission.quota

      let to_string = Stratrec_serve.Admission.quota_to_string
      let of_string = Stratrec_serve.Admission.quota_of_string
    end)

let cache =
  of_stringable
    (module struct
      type t = Stratrec.Triage_cache.config option

      let to_string = Stratrec.Triage_cache.policy_to_string
      let of_string = Stratrec.Triage_cache.policy_of_string
    end)

module Arg = Cmdliner.Arg

let strategies_arg =
  let doc = "Number of synthetic strategies in the catalog." in
  Arg.value (Arg.opt (count ~min:0) 200 (Arg.info [ "n"; "strategies" ] ~docv:"N" ~doc))

let objective_arg =
  let doc = "Platform goal: throughput or payoff." in
  Arg.value
    (Arg.opt objective Stratrec.Objective.Throughput (Arg.info [ "objective" ] ~docv:"GOAL" ~doc))

let population_arg =
  let doc = "Simulated platform population for the deploy stage." in
  Arg.value (Arg.opt (count ~min:1) 200 (Arg.info [ "population" ] ~docv:"P" ~doc))

let capacity_arg =
  let doc = "Workers per deployed HIT." in
  Arg.value (Arg.opt (count ~min:1) 5 (Arg.info [ "capacity" ] ~docv:"C" ~doc))

let window_arg =
  let doc = "Deployment window: weekend, early-week or late-week." in
  Arg.value
    (Arg.opt window Stratrec_crowdsim.Window.Weekend (Arg.info [ "window" ] ~docv:"WINDOW" ~doc))

let engine_msg e = `Msg (Stratrec.Engine.error_message e)

let catalog_or_generate ~rng ~n ~dist = function
  | Some path -> Result.map_error engine_msg (Stratrec.Engine.load_catalog ~path)
  | None -> Ok (Stratrec_model.Workload.strategies rng ~n ~kind:dist)

let deploy_config ~rng ~deploy ~faults ~retries ~population ~capacity ~window =
  let module Degrade = Stratrec_resilience.Degrade in
  if (not deploy) && retries = 0 && Stratrec_resilience.Fault.is_none faults then None
  else
    Some
      {
        Stratrec.Engine.platform = Stratrec_crowdsim.Platform.create rng ~population;
        kind = Stratrec_crowdsim.Task_spec.Sentence_translation;
        window;
        capacity;
        faults;
        resilience = Degrade.with_retries Degrade.resilient retries;
      }
